/**
 * @file
 * The 64-entry instruction window (commit-stack / reorder buffer) at
 * the heart of the out-of-order engine. Entries are addressed by
 * global sequence number; the window is a circular buffer between the
 * oldest un-committed and the youngest issued instruction.
 */

#ifndef S64V_CPU_ROB_HH
#define S64V_CPU_ROB_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "trace/record.hh"

namespace s64v
{

namespace ckpt { class Archive; }

/** Lifecycle of a window entry. */
enum class InstrState : std::uint8_t
{
    Waiting,   ///< in a reservation station.
    InFlight,  ///< dispatched; execute stage pending.
    Executing, ///< validated; completion time pending (loads).
    Done,      ///< result produced; eligible for commit.
};

/** One in-flight instruction. */
struct WindowEntry
{
    TraceRecord rec;
    std::uint64_t seq = 0;
    InstrState state = InstrState::Waiting;

    Cycle issueCycle = 0;
    Cycle dispatchCycle = 0; ///< last reservation-station dispatch.
    Cycle execCycle = 0;     ///< last (validated) execute stage.
    /** Cycle the instruction's result is architecturally complete. */
    Cycle doneCycle = kCycleNever;
    /**
     * Cycle a consumer's execute stage may use the result,
     * speculatively published at dispatch (speculative dispatch,
     * §3.1). kCycleNever until published.
     */
    Cycle predReady = kCycleNever;
    /** Confirmed consumer-usable cycle. kCycleNever until known. */
    Cycle actualReady = kCycleNever;
    /**
     * Loads only: the cycle the L1-miss cancel broadcast reaches the
     * reservation stations. Until then, dependents keep dispatching
     * on the optimistic hit schedule (and get replayed); afterwards
     * they wait for the real fill time. kCycleNever when not
     * applicable (hits, non-loads).
     */
    Cycle missKnownAt = kCycleNever;
    /** Re-dispatch cooldown after a replay (cancel recovery time). */
    Cycle notBefore = 0;

    /** Producer seqs for each source; 0 when the source was ready. */
    std::uint64_t src1Prod = 0;
    std::uint64_t src2Prod = 0;

    bool usesIntRename = false;
    bool usesFpRename = false;
    std::int32_t lsqIndex = -1; ///< LQ/SQ slot, or -1 (not saved).
    std::uint8_t rsId = 0;      ///< owning reservation station.
    std::uint8_t replays = 0;

    bool predictedTaken = false;
    bool mispredicted = false;

    /**
     * Memory-level classification of a load's data access, recorded
     * at completion so the commit-slot accounting (obs/cpi_stack.hh)
     * can attribute a blocked head to the right miss category. @{
     */
    bool missedL1 = false;
    bool missedL2 = false;
    bool missedTlb = false;
    /** @} */
};

/** Circular instruction window addressed by sequence number. */
class InstrWindow
{
  public:
    explicit InstrWindow(unsigned capacity);

    bool full() const { return tail_ - head_ >= capacity_; }
    bool empty() const { return tail_ == head_; }
    std::size_t size() const
    {
        return static_cast<std::size_t>(tail_ - head_);
    }
    unsigned capacity() const { return capacity_; }

    /** Sequence number of the oldest in-window instruction. */
    std::uint64_t headSeq() const { return head_; }
    /** Sequence number the next issued instruction receives. */
    std::uint64_t nextSeq() const { return tail_; }

    /** Issue a new instruction; window must not be full. */
    WindowEntry &allocate(const TraceRecord &rec, Cycle cycle);

    /** Retire the oldest instruction; must be the head. */
    void retireHead();

    /** @return true iff @p seq is still inside the window. */
    bool contains(std::uint64_t seq) const
    {
        return seq >= head_ && seq < tail_;
    }

    /**
     * Entry lookup on the hot path: a mask index after a range
     * check (checkRange panics out of line on violation, so the
     * inlined fast path is branch + AND).
     */
    WindowEntry &entry(std::uint64_t seq)
    {
        if (!contains(seq))
            checkRange(seq);
        return buf_[slotOf(seq)];
    }
    const WindowEntry &entry(std::uint64_t seq) const
    {
        return const_cast<InstrWindow *>(this)->entry(seq);
    }

    WindowEntry &head() { return entry(head_); }
    const WindowEntry &head() const { return entry(head_); }

    /** Write or read mutable state (checkpoint/restore). */
    void checkpoint(ckpt::Archive &ar);

  private:
    /** Out-of-line panic for entry(): keeps the hot path small. */
    [[noreturn]] void checkRange(std::uint64_t seq) const;

    std::size_t slotOf(std::uint64_t seq) const
    {
        return static_cast<std::size_t>(seq & slotMask_);
    }

    unsigned capacity_;
    /**
     * Buffer size - 1 (the size is a power of two), kept as a member
     * so a lookup does not divide the vector's byte span by the
     * entry size.
     */
    std::uint64_t slotMask_ = 0;
    std::uint64_t head_ = 1; ///< seq 0 is reserved as "no producer".
    std::uint64_t tail_ = 1;
    std::vector<WindowEntry> buf_;
};

} // namespace s64v

#endif // S64V_CPU_ROB_HH
