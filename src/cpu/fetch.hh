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
    Cycle availableAt = 0; ///< the cycle its fetch group lands.
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

    /** Advance one cycle: land arrived groups, form a group. */
    void tick(Cycle cycle);

    /** The landed instructions, oldest first. @{ */
    bool queueEmpty() const { return queued_ == 0; }
    std::size_t queueSize() const { return queued_; }
    const FetchedInstr &front() const { return ring_[head_]; }
    void popFront()
    {
        head_ = slotOf(1);
        --queued_;
        --held_;
    }
    /** @} */

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
        if (held_ != 0)
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
        // Landing the oldest in-flight instruction (they land in
        // order).
        if (queued_ < held_) {
            const Cycle c = ring_[slotOf(queued_)].availableAt;
            cand = c < now ? now : c;
        }
        // Starting a new group. Queue room only changes when the core
        // pops, and a branch stall only lifts via redirect().
        if (!stalledOnBranch_ && source_ &&
            held_ + params_.fetchBytes / 4 <= ring_.size() &&
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
    /** Form one fetch group at the ring's tail; updates stall
     *  state. */
    void formGroup(Cycle cycle);

    /** Slot of the @p i-th oldest instruction (@p i < the ring's
     *  size). */
    std::size_t slotOf(std::size_t i) const
    {
        i += head_;
        return i < ring_.size() ? i : i - ring_.size();
    }

    const CoreParams params_;
    CpuId cpu_;
    BranchPredictor &bpred_;
    MemSystem &mem_;
    VectorTraceSource *source_ = nullptr;

    /**
     * The fetch queue, a ring of fetchQueueEntries slots. From head_
     * it holds held_ instructions, oldest first: the queued_ landed
     * ones, then the groups in flight, which land from the front.
     */
    std::vector<FetchedInstr> ring_;
    std::size_t head_ = 0;
    std::size_t queued_ = 0;
    std::size_t held_ = 0;
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
