#include "cpu/lsq.hh"

#include <algorithm>
#include <bit>

#include "ckpt/snapshot.hh"
#include "common/logging.hh"

namespace s64v
{

namespace
{

constexpr std::uint64_t
bit(unsigned slot)
{
    return std::uint64_t{1} << slot;
}

/**
 * Call @p fn(slot) for each set bit of @p mask in ring order from
 * @p head, oldest first, while it returns true. @return true if the
 * walk reached the end.
 */
template <typename Fn>
bool
walk(std::uint64_t mask, unsigned head, Fn &&fn)
{
    const std::uint64_t from_head = ~std::uint64_t{0} << head;
    for (std::uint64_t m : {mask & from_head, mask & ~from_head}) {
        for (; m; m &= m - 1) {
            if (!fn(static_cast<unsigned>(std::countr_zero(m))))
                return false;
        }
    }
    return true;
}

/** The slots of a queue of @p n entries; @p param names the size. */
LsqRing
ringOf(unsigned n, const char *param)
{
    if (n == 0 || n > 64)
        fatal("%s is %u: a load or store queue holds 1 to 64 entries",
              param, n);
    return LsqRing{std::vector<LsqEntry>(n)};
}

/** Allocate @p q's tail slot to @p seq. @return it, or -1 if full. */
std::int32_t
push(LsqRing &q, std::uint64_t seq)
{
    if (q.count == q.capacity())
        return -1;
    const unsigned slot = q.slotOf(q.count++);
    q.slots[slot] = LsqEntry{};
    q.slots[slot].seq = seq;
    return static_cast<std::int32_t>(slot);
}

} // namespace

LoadStoreQueue::LoadStoreQueue(const CoreParams &params, CpuId cpu,
                               MemSystem &mem, stats::Group *parent)
    : params_(params), cpu_(cpu), mem_(mem),
      lq_(ringOf(params.loadQueueEntries, "loadQueueEntries")),
      sq_(ringOf(params.storeQueueEntries, "storeQueueEntries")),
      statGroup_("lsq", parent),
      lqOccupancy_(statGroup_.distribution("lq_occupancy",
                                           "load-queue entries held, "
                                           "sampled per cycle")),
      sqOccupancy_(statGroup_.distribution("sq_occupancy",
                                           "store-queue entries held, "
                                           "sampled per cycle")),
      loadIssues_(statGroup_.scalar("load_issues",
                                    "loads sent to the L1D")),
      storeIssues_(statGroup_.scalar("store_issues",
                                     "store writes sent to the L1D")),
      bankConflicts_(statGroup_.scalar("bank_conflicts",
                                       "accesses aborted by L1D bank "
                                       "conflicts")),
      storeForwards_(statGroup_.scalar("store_forwards",
                                       "loads satisfied from the "
                                       "store queue")),
      lqFullStalls_(statGroup_.scalar("lq_full_stalls",
                                      "issue stalls: load queue "
                                      "full")),
      sqFullStalls_(statGroup_.scalar("sq_full_stalls",
                                      "issue stalls: store queue "
                                      "full")),
      forwardWaits_(statGroup_.scalar("forward_waits",
                                      "load issue attempts waiting "
                                      "on store data"))
{
}

unsigned
LoadStoreQueue::bankOf(Addr addr) const
{
    // The SPARC64 V banks the L1D in 4-byte slices; since the model's
    // accesses are doubleword-granular (each spanning a bank pair),
    // banking is applied at dword granularity.
    return static_cast<unsigned>((addr >> 3) &
                                 (params_.l1dBanks - 1));
}

std::int32_t
LoadStoreQueue::allocateLoad(std::uint64_t seq)
{
    return push(lq_, seq);
}

std::int32_t
LoadStoreQueue::allocateStore(std::uint64_t seq)
{
    return push(sq_, seq);
}

void
LoadStoreQueue::setAddress(std::int32_t slot, bool is_store, Addr addr,
                           Cycle addr_ready)
{
    LsqRing &q = is_store ? sq_ : lq_;
    if (!q.holds(slot))
        panic("setAddress on a free LSQ slot");
    LsqEntry &e = q.slots[static_cast<unsigned>(slot)];
    e.addr = addr;
    e.addrKnown = true;
    e.addrReady = addr_ready;
    if (is_store)
        sqKnown_ |= bit(static_cast<unsigned>(slot));
    else if (!e.issued)
        lqReady_ |= bit(static_cast<unsigned>(slot));
}

void
LoadStoreQueue::commitStore(std::int32_t slot)
{
    // Committed stores lead the ring: the oldest uncommitted store is
    // the head or follows a committed one.
    const auto s = static_cast<unsigned>(slot);
    const unsigned prev = (s == 0 ? sq_.capacity() : s) - 1;
    if (!sq_.holds(slot) || sq_.slots[s].committed ||
        (s != sq_.head && !sq_.slots[prev].committed))
        panic("committing a store that is not the oldest uncommitted "
              "one");
    LsqEntry &e = sq_.slots[s];
    if (!e.addrKnown)
        panic("committing an address-less store");
    e.committed = true;
    if (!e.issued)
        sqPending_ |= bit(s);
}

void
LoadStoreQueue::freeLoad(std::int32_t slot)
{
    if (lq_.count == 0 || static_cast<unsigned>(slot) != lq_.head)
        panic("freeing a load that is not the oldest");
    lqReady_ &= ~bit(lq_.head);
    lq_.head = lq_.slotOf(1);
    --lq_.count;
}

Cycle
LoadStoreQueue::tick(Cycle cycle)
{
    // Release completed stores from the head (FIFO retirement).
    while (sq_.count) {
        const LsqEntry &e = sq_.slots[sq_.head];
        if (!e.issued || e.completion > cycle)
            break;
        sqKnown_ &= ~bit(sq_.head);
        sq_.head = sq_.slotOf(1);
        --sq_.count;
        ++activity_;
    }

    // Loads whose address has arrived, and the next one to arrive.
    std::uint64_t due = 0;
    Cycle wake = kCycleNever;
    for (std::uint64_t m = lqReady_; m; m &= m - 1) {
        const auto i = static_cast<unsigned>(std::countr_zero(m));
        const Cycle at = lq_.slots[i].addrReady;
        if (at <= cycle)
            due |= bit(i);
        else if (at < wake)
            wake = at;
    }

    // Issue candidates oldest first while ports last: committed store
    // writes, then due loads. A load leaves its queue at commit, so
    // every committed store is older than every queued load.
    unsigned ports_used = 0;
    unsigned banks_used = 0; // bitmask over <= 32 banks.
    bool waiting = false;    // a candidate retries next cycle.
    const auto serve = [&](unsigned slot, bool is_store) {
        if (ports_used >= params_.l1dPorts) {
            waiting = true;
            return false;
        }
        LsqEntry &e = is_store ? sq_.slots[slot] : lq_.slots[slot];
        const unsigned bank = bankOf(e.addr);
        if (banks_used & (1u << bank)) {
            // Lower-priority request aborted; retried next cycle.
            ++bankConflicts_;
            ++activity_;
            waiting = true;
            return true;
        }

        if (is_store) {
            const AccessResult res = mem_.data(cpu_, e.addr, true,
                                               cycle);
            e.issued = true;
            sqPending_ &= ~bit(slot);
            e.completion = res.ready;
            ++storeIssues_;
        } else {
            // Store-to-load forwarding: youngest older store to the
            // same doubleword.
            const LsqEntry *fwd = nullptr;
            walk(sqKnown_, sq_.head, [&](unsigned si) {
                const LsqEntry &s = sq_.slots[si];
                if (s.seq >= e.seq)
                    return false;
                if ((s.addr >> 3) == (e.addr >> 3))
                    fwd = &s;
                return true;
            });
            if (fwd && fwd->addrReady > cycle) {
                // Data is produced by the store's source register;
                // the store entry exists until its write completes,
                // so data is forwardable once the store could commit.
                ++forwardWaits_;
                ++activity_;
                waiting = true;
                return true;
            }
            e.issued = true;
            lqReady_ &= ~bit(slot);
            if (fwd) {
                e.completion = cycle + 1;
                ++storeForwards_;
                completedLoads_.push_back(
                    {e.seq, e.completion, true, kCycleNever});
            } else {
                const AccessResult res = mem_.data(cpu_, e.addr, false,
                                                   cycle);
                e.completion = res.ready;
                ++loadIssues_;
                // On a miss, the cancel broadcast reaches the stations
                // when the (absent) data would have been delivered.
                const Cycle miss_known = res.l1Hit
                    ? kCycleNever
                    : cycle + mem_.params().l1d.latency + 1;
                completedLoads_.push_back(
                    {e.seq, e.completion, res.l1Hit, miss_known,
                     res.l2Hit, res.tlbMiss});
            }
        }
        ++activity_;
        banks_used |= 1u << bank;
        ++ports_used;
        return true;
    };
    if (walk(sqPending_, sq_.head,
             [&](unsigned i) { return serve(i, true); }))
        walk(due, lq_.head, [&](unsigned i) { return serve(i, false); });

    // Candidates left waiting retry next cycle; otherwise the next
    // address to arrive or the head store's write completing.
    if (waiting)
        return cycle + 1;
    if (sq_.count) {
        const LsqEntry &h = sq_.slots[sq_.head];
        if (h.issued && h.completion < wake)
            wake = std::max(h.completion, cycle + 1);
    }
    return wake;
}

namespace
{

/** @p q's entries, oldest first; a read places them from slot 0. */
void
checkpointQueue(ckpt::Archive &ar, LsqRing &q, const char *what)
{
    std::uint64_t n = q.count;
    ar.u64(n);
    ar.require(n <= q.capacity(), what);
    if (ar.loading()) {
        q.head = 0;
        q.count = static_cast<unsigned>(n);
    }
    for (unsigned i = 0; i < q.count; ++i) {
        LsqEntry &e = q.slots[q.slotOf(i)];
        ar.u64(e.seq);
        ar.u64(e.addr);
        auto flags = static_cast<std::uint8_t>(
            (e.addrKnown ? 1 : 0) | (e.committed ? 2 : 0) |
            (e.issued ? 4 : 0));
        ar.u8(flags);
        e.addrKnown = (flags & 1) != 0;
        e.committed = (flags & 2) != 0;
        e.issued = (flags & 4) != 0;
        ar.u64(e.addrReady);
        ar.u64(e.completion);
    }
}

} // namespace

void
LoadStoreQueue::checkpoint(ckpt::Archive &ar)
{
    // The completed-load list is not state: tick() fills it and the
    // core drains it within the same cycle, so it is empty here.
    checkpointQueue(ar, lq_, "load queue holds more entries than its "
                             "capacity");
    checkpointQueue(ar, sq_, "store queue holds more entries than its "
                             "capacity");
    if (!ar.loading())
        return;
    completedLoads_.clear();
    lqReady_ = sqKnown_ = sqPending_ = 0;
    for (unsigned i = 0; i < lq_.count; ++i) {
        const LsqEntry &e = lq_.slots[i];
        if (e.addrKnown && !e.issued)
            lqReady_ |= bit(i);
    }
    for (unsigned i = 0; i < sq_.count; ++i) {
        const LsqEntry &e = sq_.slots[i];
        if (e.addrKnown)
            sqKnown_ |= bit(i);
        if (e.committed && !e.issued)
            sqPending_ |= bit(i);
    }
}

} // namespace s64v
