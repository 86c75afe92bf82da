/**
 * @file
 * Periodic mid-run statistics sampling. The end-of-run dump averages
 * away warm-up transients and phase behaviour; the IntervalSampler
 * instead snapshots every scalar in the stats tree every N cycles and
 * emits the per-interval deltas as one JSON object per line (JSONL),
 * the same workflow gem5's periodic stat dumps enable.
 */

#ifndef S64V_OBS_SAMPLER_HH
#define S64V_OBS_SAMPLER_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace s64v::obs
{

/**
 * Streams per-interval scalar deltas of a stats tree as JSONL.
 * Attach to a System (System::attachSampler); the run loop calls
 * tick() every period() cycles and finish() at the end of the run.
 */
class IntervalSampler
{
  public:
    /**
     * @param root stats tree to watch.
     * @param period cycles between samples (must be nonzero).
     */
    IntervalSampler(const stats::Group &root, std::uint64_t period);
    ~IntervalSampler();

    /** Send records to @p os (not owned). */
    void setOutput(std::ostream *os) { out_ = os; }

    /** Open @p path as the output stream. @return false on failure. */
    bool openFile(const std::string &path);

    /**
     * Measure the first interval from @p cycle, with @p instrs
     * committed by then: the cycle before the run's first and the
     * count at that point (a restored run resumes where its
     * checkpoint was cut). Both are 0 until set.
     */
    void setBaseline(Cycle cycle, std::uint64_t instrs)
    {
        lastCycle_ = cycle;
        lastInstrs_ = instrs;
    }

    /**
     * Called once per simulated cycle with the cycle number and the
     * total instructions committed so far (all cores); emits a record
     * whenever a period boundary is crossed.
     */
    void tick(Cycle cycle, std::uint64_t instrs);

    /** Emit the final (possibly partial) interval. */
    void finish(Cycle cycle, std::uint64_t instrs);

    std::uint64_t period() const { return period_; }
    std::uint64_t samples() const { return samples_; }

  private:
    /** (path, live counter) pairs captured from the tree. */
    struct Watch
    {
        std::string path;
        const stats::Scalar *scalar;
        std::uint64_t last = 0;
    };

    void collectWatches();
    void emitRecord(Cycle cycle, std::uint64_t instrs);

    const stats::Group &root_;
    std::uint64_t period_;
    std::ostream *out_ = nullptr;
    std::unique_ptr<std::ostream> owned_;
    std::vector<Watch> watches_;
    Cycle lastCycle_ = 0;
    std::uint64_t lastInstrs_ = 0;
    std::uint64_t samples_ = 0;
};

} // namespace s64v::obs

#endif // S64V_OBS_SAMPLER_HH
