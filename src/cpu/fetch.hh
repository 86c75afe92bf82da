/**
 * @file
 * Instruction fetch: the five-stage fetch pipeline (priority, three
 * L1I-access cycles, validate), 32-byte/8-instruction fetch groups,
 * BHT-driven direction prediction with taken-branch bubbles, and the
 * trace-driven misprediction model (fetch stalls at a mispredicted
 * branch until it resolves, then pays the redirect penalty).
 */

#ifndef S64V_CPU_FETCH_HH
#define S64V_CPU_FETCH_HH

#include <deque>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/branch_pred.hh"
#include "cpu/core_params.hh"
#include "mem/hierarchy.hh"
#include "obs/cpi_stack.hh"
#include "trace/trace.hh"

namespace s64v
{

namespace ckpt { class Archive; }

/** A fetched instruction waiting for decode. */
struct FetchedInstr
{
    TraceRecord rec;
    bool predictedTaken = false;
    bool mispredicted = false;
};

/** The I-unit's fetch machinery. */
class FetchUnit
{
  public:
    FetchUnit(const CoreParams &params, CpuId cpu,
              BranchPredictor &bpred, MemSystem &mem,
              stats::Group *parent);

    /** Attach the instruction trace to replay. */
    void setSource(VectorTraceSource *source);

    /** Advance one cycle: form a group, land arrived groups. */
    void tick(Cycle cycle);

    bool queueEmpty() const { return queue_.empty(); }
    std::size_t queueSize() const { return queue_.size(); }
    const FetchedInstr &front() const { return queue_.front(); }
    void popFront() { queue_.pop_front(); }

    /**
     * A mispredicted branch resolved at @p resolve_cycle; fetch
     * resumes after the redirect penalty.
     */
    void redirect(Cycle resolve_cycle);

    /**
     * @return true when the trace and all buffers are empty. Inline
     * and ordered cheapest-first: Core::done() polls this every
     * cycle, and mid-run the fetch queue is almost never empty, so
     * the trace peek, which copies a record, rarely needs to run.
     */
    bool exhausted() const
    {
        if (!queue_.empty() || !inflight_.empty())
            return false;
        TraceRecord dummy;
        return source_ && !source_->peek(dummy);
    }

    /** @return true while fetch waits on an unresolved mispredict. */
    bool stalledOnBranch() const { return stalledOnBranch_; }

    /**
     * Why the fetch queue is failing to deliver instructions at
     * @p cycle, for the commit-slot accounting: a pending mispredict
     * (stall or post-redirect refill) beats a frontend memory miss
     * beats plain pipeline fill (FetchEmpty).
     */
    obs::CommitSlot fetchBlockReason(Cycle cycle) const;

    /**
     * Earliest cycle >= @p now at which tick() could land the front
     * group or start a new one, with the core's side frozen: only
     * popFront() (queue room) and redirect() change the answer, and
     * the owning core calls tick() no earlier (see Core::tick).
     */
    Cycle nextWorkCycle(Cycle now) const
    {
        Cycle cand = kCycleNever;
        // Landing the front group (groups land in order).
        if (!inflight_.empty()) {
            const Cycle c = inflight_.front().availableAt;
            cand = c < now ? now : c;
        }
        // Starting a new group. Queue room only changes when the core
        // pops, and a branch stall only lifts via redirect().
        if (!stalledOnBranch_ && source_ &&
            queue_.size() + inflightInstrs_ + params_.fetchBytes / 4 <=
                params_.fetchQueueEntries &&
            source_->consumed() < source_->size()) {
            const Cycle c = nextGroupStart_ < now ? now : nextGroupStart_;
            if (c < cand)
                cand = c;
        }
        return cand;
    }

    /**
     * First cycle after @p after at which fetchBlockReason() changes
     * with the fetch state frozen (the end of a frontend miss
     * window), or kCycleNever: the commit stage's stall attribution
     * must be re-taken there although nothing moves.
     */
    Cycle blockReasonChangesAt(Cycle after) const
    {
        return !stalledOnBranch_ && !branchRecovery_ &&
                missBlockedUntil_ > after
            ? missBlockedUntil_
            : kCycleNever;
    }

    /**
     * Monotone count of tick()-side state changes (groups formed or
     * landed), never serialized. The owning core folds it into its
     * host-side activityStamp() and, with the window empty, wakes its
     * commit stage when it moves.
     */
    std::uint64_t activity() const { return activity_; }

    /** Write or read mutable state (checkpoint/restore). */
    void checkpoint(ckpt::Archive &ar);

  private:
    struct Group
    {
        Cycle availableAt = 0;
        std::vector<FetchedInstr> instrs;
    };

    /** Form one fetch group from the trace; updates stall state. */
    void formGroup(Cycle cycle);

    const CoreParams params_;
    CpuId cpu_;
    BranchPredictor &bpred_;
    MemSystem &mem_;
    VectorTraceSource *source_ = nullptr;

    std::deque<Group> inflight_;
    /** Instructions in inflight_'s groups (derived, not saved). */
    std::size_t inflightInstrs_ = 0;
    std::deque<FetchedInstr> queue_;
    Cycle nextGroupStart_ = 0;
    bool stalledOnBranch_ = false;
    /** Squash refill: redirect happened, no group landed since. */
    bool branchRecovery_ = false;
    /** Frontend memory stall window and its dominant cause. @{ */
    Cycle missBlockedUntil_ = 0;
    obs::CommitSlot missBlockReason_ = obs::CommitSlot::FetchEmpty;
    std::uint64_t activity_ = 0; ///< see activity().
    /** @} */

    stats::Group statGroup_;
    stats::Scalar &groups_;
    stats::Scalar &instrsFetched_;
    stats::Scalar &takenBubbleCycles_;
    stats::Scalar &icacheStallGroups_;
    stats::Scalar &mispredictStalls_;
};

} // namespace s64v

#endif // S64V_CPU_FETCH_HH
