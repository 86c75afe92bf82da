/**
 * @file
 * Branch history table: set-associative, tagged, 2-bit saturating
 * counters. The paper compares a 16K-entry 4-way 2-cycle table with a
 * 4K-entry 2-way 1-cycle table (§4.3.2); access latency is modelled
 * as fetch bubbles by the fetch unit.
 */

#ifndef S64V_CPU_BRANCH_PRED_HH
#define S64V_CPU_BRANCH_PRED_HH

#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/core_params.hh"

namespace s64v
{

namespace ckpt { class Archive; }

/** Tagged BHT with per-entry 2-bit counters and LRU replacement. */
class BranchPredictor
{
  public:
    BranchPredictor(const BranchPredParams &params,
                    stats::Group *parent);

    /**
     * Predict the direction of the conditional branch at @p pc.
     * @param actual_taken the trace outcome (used only when the
     *        predictor is configured perfect).
     * @return predicted direction; a table miss predicts not-taken.
     */
    bool predict(Addr pc, bool actual_taken);

    /** Train the table with the resolved outcome. */
    void update(Addr pc, bool taken);

    /** Count a resolved conditional branch and its outcome. */
    void noteOutcome(bool mispredicted);

    std::uint64_t lookups() const { return lookups_.value(); }
    std::uint64_t tableMisses() const { return tableMisses_.value(); }
    std::uint64_t resolved() const { return resolved_.value(); }
    std::uint64_t mispredicts() const { return mispredicts_.value(); }
    double mispredictRatio() const;

    const BranchPredParams &params() const { return params_; }

    /** Write or read mutable state (checkpoint/restore). */
    void checkpoint(ckpt::Archive &ar);

  private:
    struct Entry
    {
        Addr tag = 0;
        std::uint8_t counter = 0; ///< 0..3; >=2 predicts taken.
        bool valid = false;
        std::uint64_t lru = 0;
    };

    unsigned setIndex(Addr pc) const;
    Addr tagOf(Addr pc) const;

    BranchPredParams params_;
    unsigned numSets_;
    std::uint64_t lruTick_ = 0;
    std::vector<Entry> entries_;

    stats::Group statGroup_;
    stats::Scalar &lookups_;
    stats::Scalar &tableMisses_;
    stats::Scalar &resolved_;
    stats::Scalar &mispredicts_;
};

} // namespace s64v

#endif // S64V_CPU_BRANCH_PRED_HH
