/**
 * @file
 * Load queue (16 entries) and store queue (10 entries) implementing
 * the non-blocking dual operand access of §3.2: up to two requests
 * per cycle to the eight-banked L1 operand cache, bank-conflict
 * abort/retry, store-to-load forwarding, and store-queue residency
 * until a missing line returns.
 */

#ifndef S64V_CPU_LSQ_HH
#define S64V_CPU_LSQ_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/core_params.hh"
#include "mem/hierarchy.hh"

namespace s64v
{

namespace ckpt { class Archive; }

/** One load- or store-queue entry. */
struct LsqEntry
{
    std::uint64_t seq = 0;
    Addr addr = 0;
    bool addrKnown = false;
    bool committed = false; ///< stores: retired, write may issue.
    bool issued = false;    ///< cache access sent (or forwarded).
    Cycle addrReady = kCycleNever;
    Cycle completion = kCycleNever;
};

/**
 * One queue in program order: slots [head, head + count), wrapping,
 * hold its entries, oldest first. An entry joins at the tail and
 * leaves from the head.
 */
struct LsqRing
{
    std::vector<LsqEntry> slots;
    unsigned head = 0;
    unsigned count = 0;

    unsigned capacity() const
    {
        return static_cast<unsigned>(slots.size());
    }
    /** Slot of the @p i-th oldest entry (@p i < capacity()). */
    unsigned slotOf(unsigned i) const
    {
        i += head;
        return i < capacity() ? i : i - capacity();
    }
    /** The @p i-th oldest entry. */
    const LsqEntry &at(unsigned i) const { return slots[slotOf(i)]; }
    /** @return true iff @p slot holds an entry. */
    bool holds(std::int32_t slot) const
    {
        if (slot < 0 || static_cast<unsigned>(slot) >= capacity())
            return false;
        const unsigned s = static_cast<unsigned>(slot);
        return (s >= head ? s - head : s + capacity() - head) < count;
    }
};

/** A load whose data-return time became known this cycle. */
struct LoadCompletion
{
    std::uint64_t seq = 0;
    Cycle completion = 0;
    bool l1Hit = true;
    /** Miss-discovery broadcast time (see WindowEntry::missKnownAt). */
    Cycle missKnownAt = kCycleNever;
    bool l2Hit = true;    ///< meaningful only when !l1Hit.
    bool tlbMiss = false; ///< translation paid a page walk.
};

/**
 * The combined load/store queue machinery. Each queue is a ring in
 * program order: a load leaves at commit, a store when its write
 * completes. Queue sizes run from 1 to 64 entries, so each scan the
 * tick runs is one 64-bit mask walked from its ring's head.
 */
class LoadStoreQueue
{
  public:
    LoadStoreQueue(const CoreParams &params, CpuId cpu,
                   MemSystem &mem, stats::Group *parent);

    /** Allocate the tail slot at issue. @return the slot or -1 if
     *  full. */
    std::int32_t allocateLoad(std::uint64_t seq);
    std::int32_t allocateStore(std::uint64_t seq);

    /** Record the generated address (agen execute stage). */
    void setAddress(std::int32_t slot, bool is_store, Addr addr,
                    Cycle addr_ready);

    /** Mark the oldest uncommitted store retired; its write may now
     *  issue. */
    void commitStore(std::int32_t slot);

    /** Release the oldest load at its commit. */
    void freeLoad(std::int32_t slot);

    /**
     * Per-cycle port/bank arbitration and cache access issue.
     * Newly determined load completions are appended to
     * completedLoads() for the core to consume. @return the first
     * cycle after @p cycle at which tick() could change state or
     * mutate a stat with the core's side frozen (kCycleNever if
     * none): the owning core calls tick() no earlier, until
     * setAddress() of a load or commitStore() wakes it (see
     * Core::tick). A committed store or a load left waiting (bank
     * conflict, port limit, store data) retries the next cycle.
     */
    Cycle tick(Cycle cycle);

    /** Completions discovered by the latest tick()s; caller clears. */
    std::vector<LoadCompletion> &completedLoads()
    {
        return completedLoads_;
    }

    bool lqFull() const { return lq_.count == lq_.capacity(); }
    bool sqFull() const { return sq_.count == sq_.capacity(); }
    bool sqEmpty() const { return sq_.count == 0; }
    bool drained() const { return lq_.count == 0 && sq_.count == 0; }

    /** Occupancy snapshot (invariant auditor / crash report). @{ */
    std::size_t lqSize() const { return lq_.count; }
    std::size_t sqSize() const { return sq_.count; }
    std::size_t lqCapacity() const { return lq_.capacity(); }
    std::size_t sqCapacity() const { return sq_.capacity(); }
    /** @} */

    /** The queues, for the restore's checks against the window. @{ */
    const LsqRing &loadQueue() const { return lq_; }
    const LsqRing &storeQueue() const { return sq_; }
    /** @} */

    /** Issue-stall accounting hooks. @{ */
    void noteLqFullStall(std::uint64_t n = 1) { lqFullStalls_ += n; }
    void noteSqFullStall(std::uint64_t n = 1) { sqFullStalls_ += n; }
    /** @} */

    /**
     * Monotone count of tick()-side state/stat mutations (releases,
     * issues, conflicts, waits), never serialized: folded into the
     * owning core's host-side activityStamp().
     */
    std::uint64_t activity() const { return activity_; }

    /**
     * Record @p n cycles at LQ / SQ occupancy @p v (see
     * ReservationStation::sampleOccupancy). @{
     */
    void sampleLqOccupancy(std::uint64_t v, std::uint64_t n)
    {
        lqOccupancy_.sample(static_cast<double>(v), n);
    }
    void sampleSqOccupancy(std::uint64_t v, std::uint64_t n)
    {
        sqOccupancy_.sample(static_cast<double>(v), n);
    }
    /** @} */

    std::uint64_t bankConflicts() const
    {
        return bankConflicts_.value();
    }
    std::uint64_t storeForwards() const
    {
        return storeForwards_.value();
    }

    /**
     * Write or read mutable state (checkpoint/restore): each queue's
     * entries, oldest first. A read places them from slot 0.
     */
    void checkpoint(ckpt::Archive &ar);

  private:
    unsigned bankOf(Addr addr) const;

    const CoreParams params_;
    CpuId cpu_;
    MemSystem &mem_;

    std::uint64_t activity_ = 0; ///< see activity().

    LsqRing lq_;
    LsqRing sq_;
    std::vector<LoadCompletion> completedLoads_;

    /**
     * One bit per slot for each scan tick() runs, kept at every flag
     * transition so a scan walks set bits instead of testing every
     * entry. Derived state: rebuilt from the entries on restore,
     * never serialized. @{
     */
    std::uint64_t lqReady_ = 0;   ///< addrKnown && !issued loads.
    std::uint64_t sqKnown_ = 0;   ///< addrKnown stores (forwarding).
    std::uint64_t sqPending_ = 0; ///< committed && !issued stores.
    /** @} */

    stats::Group statGroup_;
    stats::Distribution &lqOccupancy_;
    stats::Distribution &sqOccupancy_;
    stats::Scalar &loadIssues_;
    stats::Scalar &storeIssues_;
    stats::Scalar &bankConflicts_;
    stats::Scalar &storeForwards_;
    stats::Scalar &lqFullStalls_;
    stats::Scalar &sqFullStalls_;
    stats::Scalar &forwardWaits_;
};

} // namespace s64v

#endif // S64V_CPU_LSQ_HH
