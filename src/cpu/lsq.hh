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

#include "common/bitutil.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/core_params.hh"
#include "mem/hierarchy.hh"

namespace s64v
{

namespace ckpt { class SnapshotWriter; class SnapshotReader; }

/** One load- or store-queue slot. */
struct LsqEntry
{
    std::uint64_t seq = 0;
    Addr addr = 0;
    bool valid = false;
    bool isStore = false;
    bool addrKnown = false;
    bool committed = false; ///< stores: retired, write may issue.
    bool issued = false;    ///< cache access sent (or forwarded).
    Cycle addrReady = kCycleNever;
    Cycle completion = kCycleNever;
};

/** A load whose data-return time became known this cycle. */
struct LoadCompletion
{
    std::uint64_t seq = 0;
    std::int32_t slot = 0;
    Cycle completion = 0;
    bool l1Hit = true;
    /** Miss-discovery broadcast time (see WindowEntry::missKnownAt). */
    Cycle missKnownAt = kCycleNever;
    bool l2Hit = true;    ///< meaningful only when !l1Hit.
    bool tlbMiss = false; ///< translation paid a page walk.
};

/** The combined load/store queue machinery. */
class LoadStoreQueue
{
  public:
    LoadStoreQueue(const CoreParams &params, CpuId cpu,
                   MemSystem &mem, stats::Group *parent);

    /** Allocate a slot at issue. @return slot index or -1 if full. */
    std::int32_t allocateLoad(std::uint64_t seq);
    std::int32_t allocateStore(std::uint64_t seq);

    /** Record the generated address (agen execute stage). */
    void setAddress(std::int32_t slot, bool is_store, Addr addr,
                    Cycle addr_ready);

    /** Mark a store retired; its write may now issue. */
    void commitStore(std::int32_t slot);

    /** Release a load slot at commit. */
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

    bool lqFull() const { return lqCount_ >= loads_.size(); }
    bool sqFull() const { return sqCount_ >= stores_.size(); }
    bool sqEmpty() const { return sqCount_ == 0; }
    bool drained() const { return lqCount_ == 0 && sqCount_ == 0; }

    /** Occupancy snapshot (invariant auditor / crash report). @{ */
    std::size_t lqSize() const { return lqCount_; }
    std::size_t sqSize() const { return sqCount_; }
    std::size_t lqCapacity() const { return loads_.size(); }
    std::size_t sqCapacity() const { return stores_.size(); }
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

    /** Serialize mutable state (checkpoint/restore). */
    void saveState(ckpt::SnapshotWriter &w) const;
    void restoreState(ckpt::SnapshotReader &r);

  private:
    unsigned bankOf(Addr addr) const;

    /** Oldest valid store, or -1: the head of the store ring. */
    std::int32_t oldestStore() const
    {
        return sqCount_ ? sqOrder_[sqHead_] : -1;
    }

    /** An issue candidate collected by tick()'s arbitration pass. */
    struct Candidate
    {
        LsqEntry *entry;
        std::int32_t slot;
        bool isStore;
    };

    const CoreParams params_;
    CpuId cpu_;
    MemSystem &mem_;

    /**
     * tick()'s candidate scratch, hoisted out of the per-cycle path:
     * a local vector re-allocates on every cycle that has at least
     * one issue candidate, which is most busy cycles.
     */
    std::vector<Candidate> candScratch_;

    std::uint64_t activity_ = 0; ///< see activity().

    std::vector<LsqEntry> loads_;
    std::vector<LsqEntry> stores_;
    std::vector<LoadCompletion> completedLoads_;
    /** Valid-entry counts, maintained flat so the hot-loop occupancy
     *  checks stop rescanning the queues. */
    std::size_t lqCount_ = 0;
    std::size_t sqCount_ = 0;

    /**
     * Struct-of-arrays indices over the queue slots, maintained at
     * every flag transition so the per-cycle scans (candidate
     * collection, FIFO release, forwarding, nextWorkCycle) iterate
     * set bits instead of branching per entry. Derived state —
     * rebuilt from the entry flags on restore, never serialized. @{
     */
    DenseBits lqValid_;   ///< valid load slots.
    DenseBits lqReady_;   ///< valid && addrKnown && !issued loads.
    DenseBits sqValid_;   ///< valid store slots.
    DenseBits sqKnown_;   ///< valid && addrKnown stores (forwarding).
    DenseBits sqPending_; ///< valid && committed && !issued stores.
    /** @} */

    /**
     * Ring of the sqCount_ valid store slots in program order, oldest
     * at sqHead_. Stores are allocated at issue, in order, and
     * released FIFO, so the ring only ever pushes at the tail and
     * pops at the head. Derived state like the masks: rebuilt on
     * restore, never serialized.
     */
    std::vector<std::int32_t> sqOrder_;
    std::size_t sqHead_ = 0;

    /** Rebuild every mask and the store ring from the entries
     *  (restore path). */
    void rebuildMasks();

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
