/**
 * @file
 * Set-associative TLB model. A miss costs a fixed hardware table-walk
 * latency (the walk itself is not traced through the caches; the
 * aggregate cost is what the paper's "tlb" stall component measures).
 */

#ifndef S64V_MEM_TLB_HH
#define S64V_MEM_TLB_HH

#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/memtypes.hh"

namespace s64v
{

namespace ckpt { class Archive; }

/** Timed TLB with true-LRU sets. */
class Tlb
{
  public:
    Tlb(const TlbParams &params, const std::string &name,
        stats::Group *parent);

    /**
     * Translate @p addr at @p cycle.
     * @return additional latency in cycles (0 on hit).
     */
    unsigned translate(Addr addr, Cycle cycle);

    std::uint64_t accesses() const { return accesses_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    double missRatio() const;

    /** Write or read entries/LRU (checkpoint/restore). */
    void checkpoint(ckpt::Archive &ar);

  private:
    struct Entry
    {
        Addr vpn = 0;
        bool valid = false;
        std::uint64_t lru = 0;
    };

    TlbParams params_;
    unsigned numSets_;
    std::uint64_t lruTick_ = 0;
    std::vector<Entry> entries_;

    stats::Group statGroup_;
    stats::Scalar &accesses_;
    stats::Scalar &misses_;
};

} // namespace s64v

#endif // S64V_MEM_TLB_HH
