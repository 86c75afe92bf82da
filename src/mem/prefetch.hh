/**
 * @file
 * Hardware prefetch engine for the on-chip L2 cache (paper §3.4). The
 * prefetch is triggered by L1-cache demand misses arriving at the L2;
 * a small stream table detects ascending line sequences ("chain
 * access patterns") and requests the next lines into the L2.
 */

#ifndef S64V_MEM_PREFETCH_HH
#define S64V_MEM_PREFETCH_HH

#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace s64v
{

namespace ckpt { class Archive; }

/** Stream-prefetcher configuration. */
struct PrefetchParams
{
    bool enabled = true;
    unsigned streams = 16;    ///< tracked concurrent streams.
    unsigned candidates = 32; ///< pre-training filter entries.
    unsigned degree = 2;      ///< lines fetched per trigger.
    unsigned trainThreshold = 2; ///< sequential hits before firing.
};

/**
 * Detects ascending line-address streams in the L2 demand-request
 * sequence and proposes prefetch candidates. The memory hierarchy
 * executes the candidates (they consume real bus and memory-
 * controller bandwidth).
 */
class StreamPrefetcher
{
  public:
    StreamPrefetcher(const PrefetchParams &params,
                     const std::string &name, stats::Group *parent);

    /**
     * Observe a demand request for the line containing @p addr and
     * append prefetch candidate line addresses to @p out.
     */
    void observe(Addr addr, std::vector<Addr> &out);

    bool enabled() const { return params_.enabled; }
    std::uint64_t trainings() const { return trainings_.value(); }

    /** Write or read stream/candidate tables (checkpoint/restore). */
    void checkpoint(ckpt::Archive &ar);

  private:
    struct Stream
    {
        Addr nextLine = 0; ///< expected next line number.
        unsigned confidence = 0;
        std::uint64_t lru = 0;
        bool valid = false;
    };

    static void checkpointTable(ckpt::Archive &ar,
                                std::vector<Stream> &t);

    PrefetchParams params_;
    std::vector<Stream> streams_;
    /**
     * Allocation filter: a line must show one sequential successor in
     * this table before it earns a stream entry, so random traffic
     * cannot evict trained streams.
     */
    std::vector<Stream> candidates_;
    std::uint64_t lruTick_ = 0;

    stats::Group statGroup_;
    stats::Scalar &observations_;
    stats::Scalar &trainings_;
    stats::Scalar &candidatesStat_;
};

} // namespace s64v

#endif // S64V_MEM_PREFETCH_HH
