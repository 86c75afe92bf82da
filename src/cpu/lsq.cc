#include "cpu/lsq.hh"

#include "ckpt/snapshot.hh"
#include <algorithm>

#include "common/logging.hh"

namespace s64v
{

LoadStoreQueue::LoadStoreQueue(const CoreParams &params, CpuId cpu,
                               MemSystem &mem, stats::Group *parent)
    : params_(params), cpu_(cpu), mem_(mem),
      loads_(params.loadQueueEntries),
      stores_(params.storeQueueEntries),
      lqValid_(params.loadQueueEntries),
      lqReady_(params.loadQueueEntries),
      sqValid_(params.storeQueueEntries),
      sqKnown_(params.storeQueueEntries),
      sqPending_(params.storeQueueEntries),
      sqOrder_(params.storeQueueEntries),
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
    const std::int64_t i = lqValid_.findFirstZero();
    if (i < 0)
        return -1;
    loads_[i] = LsqEntry{};
    loads_[i].valid = true;
    loads_[i].seq = seq;
    lqValid_.set(static_cast<std::size_t>(i));
    ++lqCount_;
    return static_cast<std::int32_t>(i);
}

std::int32_t
LoadStoreQueue::allocateStore(std::uint64_t seq)
{
    const std::int64_t i = sqValid_.findFirstZero();
    if (i < 0)
        return -1;
    stores_[i] = LsqEntry{};
    stores_[i].valid = true;
    stores_[i].isStore = true;
    stores_[i].seq = seq;
    sqValid_.set(static_cast<std::size_t>(i));
    std::size_t tail = sqHead_ + sqCount_;
    if (tail >= sqOrder_.size())
        tail -= sqOrder_.size();
    sqOrder_[tail] = static_cast<std::int32_t>(i);
    ++sqCount_;
    return static_cast<std::int32_t>(i);
}

void
LoadStoreQueue::setAddress(std::int32_t slot, bool is_store, Addr addr,
                           Cycle addr_ready)
{
    LsqEntry &e = is_store ? stores_[slot] : loads_[slot];
    if (!e.valid)
        panic("setAddress on invalid LSQ slot");
    e.addr = addr;
    e.addrKnown = true;
    e.addrReady = addr_ready;
    if (is_store)
        sqKnown_.set(static_cast<std::size_t>(slot));
    else if (!e.issued)
        lqReady_.set(static_cast<std::size_t>(slot));
}

void
LoadStoreQueue::commitStore(std::int32_t slot)
{
    LsqEntry &e = stores_[slot];
    if (!e.valid || !e.addrKnown)
        panic("committing an invalid or address-less store");
    e.committed = true;
    if (!e.issued)
        sqPending_.set(static_cast<std::size_t>(slot));
}

void
LoadStoreQueue::freeLoad(std::int32_t slot)
{
    if (loads_[slot].valid)
        --lqCount_;
    loads_[slot].valid = false;
    lqValid_.clear(static_cast<std::size_t>(slot));
    lqReady_.clear(static_cast<std::size_t>(slot));
}

Cycle
LoadStoreQueue::tick(Cycle cycle)
{
    // Release completed stores in order (FIFO retirement of the SQ).
    for (;;) {
        const std::int32_t head = oldestStore();
        if (head < 0)
            break;
        LsqEntry &e = stores_[head];
        if (e.issued && e.completion <= cycle) {
            e.valid = false;
            const std::size_t slot = static_cast<std::size_t>(head);
            sqValid_.clear(slot);
            sqKnown_.clear(slot);
            sqPending_.clear(slot);
            if (++sqHead_ == sqOrder_.size())
                sqHead_ = 0;
            --sqCount_;
            ++activity_;
        } else {
            break;
        }
    }

    // Collect issue candidates: committed store writes and loads with
    // generated addresses, oldest first. The struct-of-arrays masks
    // pre-filter the flag tests; only the time gate remains per load.
    std::vector<Candidate> &cands = candScratch_;
    cands.clear();
    sqPending_.forEach([&](std::size_t i) {
        cands.push_back(
            {&stores_[i], static_cast<std::int32_t>(i), true});
    });
    Cycle wake = kCycleNever; // the next load address to arrive.
    lqReady_.forEach([&](std::size_t i) {
        const Cycle at = loads_[i].addrReady;
        if (at <= cycle) {
            cands.push_back(
                {&loads_[i], static_cast<std::int32_t>(i), false});
        } else if (at < wake) {
            wake = at;
        }
    });
    std::sort(cands.begin(), cands.end(),
              [](const Candidate &a, const Candidate &b) {
                  return a.entry->seq < b.entry->seq;
              });

    unsigned ports_used = 0;
    unsigned banks_used = 0; // bitmask over <= 32 banks.
    std::size_t served = 0;  // candidates issued or forwarded.
    for (const Candidate &c : cands) {
        if (ports_used >= params_.l1dPorts)
            break;
        LsqEntry &e = *c.entry;
        const unsigned bank = bankOf(e.addr);
        if (banks_used & (1u << bank)) {
            // Lower-priority request aborted; retried next cycle.
            ++bankConflicts_;
            ++activity_;
            continue;
        }

        if (!c.isStore) {
            // Store-to-load forwarding: youngest older store to the
            // same doubleword.
            LsqEntry *fwd = nullptr;
            sqKnown_.forEach([&](std::size_t si) {
                LsqEntry &s = stores_[si];
                if (s.seq >= e.seq)
                    return;
                if ((s.addr >> 3) != (e.addr >> 3))
                    return;
                if (!fwd || s.seq > fwd->seq)
                    fwd = &s;
            });
            if (fwd) {
                // Data is produced by the store's source register;
                // the store entry exists until its write completes,
                // so data is forwardable once the store could commit.
                if (fwd->addrReady <= cycle) {
                    e.issued = true;
                    lqReady_.clear(static_cast<std::size_t>(c.slot));
                    e.completion = cycle + 1;
                    ++storeForwards_;
                    ++activity_;
                    completedLoads_.push_back(
                        {e.seq, c.slot, e.completion, true,
                         kCycleNever});
                    banks_used |= 1u << bank;
                    ++ports_used;
                    ++served;
                } else {
                    ++forwardWaits_;
                    ++activity_;
                }
                continue;
            }
            const AccessResult res = mem_.data(cpu_, e.addr, false,
                                               cycle);
            e.issued = true;
            lqReady_.clear(static_cast<std::size_t>(c.slot));
            e.completion = res.ready;
            ++loadIssues_;
            ++activity_;
            // On a miss, the cancel broadcast reaches the stations
            // when the (absent) data would have been delivered.
            const Cycle miss_known = res.l1Hit
                ? kCycleNever
                : cycle + mem_.params().l1d.latency + 1;
            completedLoads_.push_back(
                {e.seq, c.slot, e.completion, res.l1Hit, miss_known,
                 res.l2Hit, res.tlbMiss});
            banks_used |= 1u << bank;
            ++ports_used;
            ++served;
        } else {
            const AccessResult res = mem_.data(cpu_, e.addr, true,
                                               cycle);
            e.issued = true;
            sqPending_.clear(static_cast<std::size_t>(c.slot));
            e.completion = res.ready;
            ++storeIssues_;
            ++activity_;
            banks_used |= 1u << bank;
            ++ports_used;
            ++served;
        }
    }

    // Candidates left waiting retry next cycle; otherwise the next
    // address to arrive or the head store's write completing.
    if (served < cands.size())
        return cycle + 1;
    const std::int32_t head = oldestStore();
    if (head >= 0 && stores_[head].issued &&
        stores_[head].completion < wake)
        wake = std::max(stores_[head].completion, cycle + 1);
    return wake;
}

namespace
{

void
checkpointEntries(ckpt::Archive &ar, std::vector<LsqEntry> &v,
                  const char *what)
{
    ar.fixed64(v.size(), what);
    for (LsqEntry &e : v) {
        ar.u64(e.seq);
        ar.u64(e.addr);
        auto flags = static_cast<std::uint8_t>(
            (e.valid ? 1 : 0) | (e.isStore ? 2 : 0) |
            (e.addrKnown ? 4 : 0) | (e.committed ? 8 : 0) |
            (e.issued ? 16 : 0));
        ar.u8(flags);
        e.valid = (flags & 1) != 0;
        e.isStore = (flags & 2) != 0;
        e.addrKnown = (flags & 4) != 0;
        e.committed = (flags & 8) != 0;
        e.issued = (flags & 16) != 0;
        ar.u64(e.addrReady);
        ar.u64(e.completion);
    }
}

} // namespace

void
LoadStoreQueue::rebuildMasks()
{
    lqValid_.reset();
    lqReady_.reset();
    sqValid_.reset();
    sqKnown_.reset();
    sqPending_.reset();
    for (std::size_t i = 0; i < loads_.size(); ++i) {
        const LsqEntry &e = loads_[i];
        if (!e.valid)
            continue;
        lqValid_.set(i);
        if (e.addrKnown && !e.issued)
            lqReady_.set(i);
    }
    std::size_t stores = 0;
    for (std::size_t i = 0; i < stores_.size(); ++i) {
        const LsqEntry &e = stores_[i];
        if (!e.valid)
            continue;
        sqValid_.set(i);
        if (e.addrKnown)
            sqKnown_.set(i);
        if (e.committed && !e.issued)
            sqPending_.set(i);
        sqOrder_[stores++] = static_cast<std::int32_t>(i);
    }
    std::sort(sqOrder_.begin(), sqOrder_.begin() + stores,
              [&](std::int32_t a, std::int32_t b) {
                  return stores_[a].seq < stores_[b].seq;
              });
    sqHead_ = 0;
}

void
LoadStoreQueue::checkpoint(ckpt::Archive &ar)
{
    // The completed-load list is not state: tick() fills it and the
    // core drains it within the same cycle, so it is empty here.
    checkpointEntries(ar, loads_, "load-queue capacity differs");
    checkpointEntries(ar, stores_, "store-queue capacity differs");
    if (ar.loading()) {
        rebuildMasks();
        lqCount_ = lqValid_.count();
        sqCount_ = sqValid_.count();
        completedLoads_.clear();
    }
}

} // namespace s64v
