#include "cpu/lsq.hh"

#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"

namespace s64v
{
namespace
{

struct Rig
{
    stats::Group root{"t"};
    MemParams mp;
    CoreParams cp;
    std::unique_ptr<MemSystem> mem;
    std::unique_ptr<LoadStoreQueue> lsq;

    Rig()
    {
        mem = std::make_unique<MemSystem>(mp, 1, &root);
        lsq = std::make_unique<LoadStoreQueue>(cp, 0, *mem, &root);
    }

    /** Warm a line into the L1D. */
    void
    warm(Addr addr)
    {
        mem->data(0, addr, false, 0);
    }
};

TEST(Lsq, LoadHitCompletes)
{
    Rig rig;
    rig.warm(0x1000); // line in flight until ~cycle 200.
    const auto slot = rig.lsq->allocateLoad(100);
    ASSERT_GE(slot, 0);
    rig.lsq->setAddress(slot, false, 0x1008, 400);
    rig.lsq->tick(400);
    ASSERT_EQ(rig.lsq->completedLoads().size(), 1u);
    const LoadCompletion &lc = rig.lsq->completedLoads()[0];
    EXPECT_EQ(lc.seq, 100u);
    EXPECT_TRUE(lc.l1Hit);
    EXPECT_EQ(lc.completion, 400u + rig.mp.l1d.latency);
}

TEST(Lsq, LoadWaitsForAddress)
{
    Rig rig;
    const auto slot = rig.lsq->allocateLoad(100);
    rig.lsq->setAddress(slot, false, 0x1000, 60);
    rig.lsq->tick(50); // before the address is generated.
    EXPECT_TRUE(rig.lsq->completedLoads().empty());
    rig.lsq->tick(60);
    EXPECT_EQ(rig.lsq->completedLoads().size(), 1u);
}

TEST(Lsq, DualPortsTwoPerCycle)
{
    Rig rig;
    rig.warm(0x1000);
    rig.warm(0x2000);
    rig.warm(0x3000);
    // Three ready loads to distinct banks; only two ports.
    const auto s1 = rig.lsq->allocateLoad(1);
    const auto s2 = rig.lsq->allocateLoad(2);
    const auto s3 = rig.lsq->allocateLoad(3);
    rig.lsq->setAddress(s1, false, 0x1000, 400);
    rig.lsq->setAddress(s2, false, 0x2004, 400);
    rig.lsq->setAddress(s3, false, 0x3008, 400);
    rig.lsq->tick(400);
    EXPECT_EQ(rig.lsq->completedLoads().size(), 2u);
    rig.lsq->tick(401);
    EXPECT_EQ(rig.lsq->completedLoads().size(), 3u);
}

TEST(Lsq, BankConflictAbortsYounger)
{
    Rig rig;
    rig.warm(0x1000);
    // Two loads to the same (dword-granular) bank: addresses whose
    // bits [5:3] match.
    const auto s1 = rig.lsq->allocateLoad(1);
    const auto s2 = rig.lsq->allocateLoad(2);
    rig.lsq->setAddress(s1, false, 0x1000, 400);
    rig.lsq->setAddress(s2, false, 0x1040, 400); // same bank 0.
    rig.lsq->tick(400);
    EXPECT_EQ(rig.lsq->completedLoads().size(), 1u);
    EXPECT_EQ(rig.lsq->completedLoads()[0].seq, 1u);
    EXPECT_EQ(rig.lsq->bankConflicts(), 1u);
    rig.lsq->tick(401); // retried.
    EXPECT_EQ(rig.lsq->completedLoads().size(), 2u);
}

TEST(Lsq, StoreToLoadForwarding)
{
    Rig rig;
    const auto st = rig.lsq->allocateStore(1);
    rig.lsq->setAddress(st, true, 0x4000, 5);
    const auto ld = rig.lsq->allocateLoad(2);
    rig.lsq->setAddress(ld, false, 0x4000, 6);
    rig.lsq->tick(10);
    ASSERT_EQ(rig.lsq->completedLoads().size(), 1u);
    EXPECT_EQ(rig.lsq->completedLoads()[0].completion, 11u);
    EXPECT_EQ(rig.lsq->storeForwards(), 1u);
}

TEST(Lsq, NoForwardAcrossDifferentDwords)
{
    Rig rig;
    rig.warm(0x4000);
    const auto st = rig.lsq->allocateStore(1);
    rig.lsq->setAddress(st, true, 0x4000, 400);
    const auto ld = rig.lsq->allocateLoad(2);
    rig.lsq->setAddress(ld, false, 0x4010, 401);
    rig.lsq->tick(401);
    ASSERT_EQ(rig.lsq->completedLoads().size(), 1u);
    EXPECT_EQ(rig.lsq->storeForwards(), 0u);
}

TEST(Lsq, YoungerStoreDoesNotForwardToOlderLoad)
{
    Rig rig;
    rig.warm(0x5000);
    const auto ld = rig.lsq->allocateLoad(1); // older than the store.
    rig.lsq->setAddress(ld, false, 0x5000, 400);
    const auto st = rig.lsq->allocateStore(2);
    rig.lsq->setAddress(st, true, 0x5000, 400);
    rig.lsq->tick(400);
    EXPECT_EQ(rig.lsq->storeForwards(), 0u);
}

TEST(Lsq, StoreWriteIssuesAfterCommitAndFrees)
{
    Rig rig;
    rig.warm(0x6000); // line in flight until ~cycle 200.
    const auto st = rig.lsq->allocateStore(1);
    rig.lsq->setAddress(st, true, 0x6000, 400);
    rig.lsq->tick(401);
    EXPECT_FALSE(rig.lsq->sqEmpty()); // not committed yet.
    rig.lsq->commitStore(st);
    rig.lsq->tick(402); // write issues.
    // Entry frees once the write completes.
    rig.lsq->tick(402 + rig.mp.l1d.latency + 1);
    EXPECT_TRUE(rig.lsq->sqEmpty());
}

TEST(Lsq, SqMissHoldsEntryUntilLineReady)
{
    Rig rig;
    const auto st = rig.lsq->allocateStore(1);
    rig.lsq->setAddress(st, true, 0x777000, 5); // cold: L2+mem miss.
    rig.lsq->commitStore(st);
    rig.lsq->tick(6);
    rig.lsq->tick(20);
    EXPECT_FALSE(rig.lsq->sqEmpty()); // line still in flight.
    rig.lsq->tick(2000);
    EXPECT_TRUE(rig.lsq->sqEmpty());
}

TEST(Lsq, CapacityChecks)
{
    Rig rig;
    for (unsigned i = 0; i < rig.cp.loadQueueEntries; ++i)
        EXPECT_GE(rig.lsq->allocateLoad(i), 0);
    EXPECT_TRUE(rig.lsq->lqFull());
    EXPECT_EQ(rig.lsq->allocateLoad(99), -1);

    for (unsigned i = 0; i < rig.cp.storeQueueEntries; ++i)
        EXPECT_GE(rig.lsq->allocateStore(100 + i), 0);
    EXPECT_TRUE(rig.lsq->sqFull());
    EXPECT_EQ(rig.lsq->allocateStore(199), -1);
}

TEST(Lsq, FreeLoadReleasesSlot)
{
    Rig rig;
    const auto s = rig.lsq->allocateLoad(1);
    rig.lsq->freeLoad(s);
    EXPECT_FALSE(rig.lsq->lqFull());
    EXPECT_TRUE(rig.lsq->drained());
}

TEST(Lsq, RingsKeepProgramOrderAcrossTheWrap)
{
    // 40 loads and 25 stores pass through the 16-entry load queue and
    // the 10-entry store queue, so both rings wrap. Access k (< 16)
    // is to its own clean line, warm in the L1D by cycle 1000, in bank
    // k % 8; two ports serve two accesses a cycle.
    Rig rig;
    const auto addr = [](unsigned k) {
        return Addr{0x10000} + 64 * k + 8 * (k % 8);
    };
    for (unsigned k = 0; k < 16; ++k)
        rig.warm(addr(k));
    const Addr other = 0x90000; // the first phase's line.
    rig.warm(other);
    LoadStoreQueue &lsq = *rig.lsq;
    Cycle now = 1000;
    std::uint64_t seq = 1;

    // 10 loads and 7 stores move the heads to slots 10 and 7.
    for (unsigned i = 0; i < 10; ++i) {
        const auto slot = lsq.allocateLoad(seq++);
        lsq.setAddress(slot, false, other, now);
        lsq.tick(now++);
        ASSERT_EQ(lsq.completedLoads().size(), 1u);
        lsq.completedLoads().clear();
        lsq.freeLoad(slot);
    }
    for (unsigned i = 0; i < 7; ++i) {
        const auto slot = lsq.allocateStore(seq++);
        lsq.setAddress(slot, true, other, now);
        lsq.commitStore(slot);
        while (!lsq.sqEmpty())
            lsq.tick(now++);
    }

    // 16 ready loads, slots 10-15 then 0-9: two issue a cycle, oldest
    // first.
    std::vector<std::int32_t> slots;
    const std::uint64_t first_load = seq;
    for (unsigned k = 0; k < 16; ++k)
        slots.push_back(lsq.allocateLoad(seq++));
    EXPECT_EQ(slots.front(), 10);
    EXPECT_EQ(slots.back(), 9);
    for (unsigned k = 16; k-- > 0;)
        lsq.setAddress(slots[k], false, addr(k), now);
    std::vector<std::uint64_t> order;
    for (unsigned i = 0; i < 8; ++i) {
        lsq.tick(now++);
        ASSERT_EQ(lsq.completedLoads().size(), 2u) << i;
        for (const LoadCompletion &lc : lsq.completedLoads())
            order.push_back(lc.seq - first_load);
        lsq.completedLoads().clear();
    }
    std::vector<std::uint64_t> want(16);
    for (unsigned k = 0; k < 16; ++k)
        want[k] = k;
    EXPECT_EQ(order, want);
    for (std::int32_t slot : slots)
        lsq.freeLoad(slot);

    // 10 committed stores, slots 7-9 then 0-6: the two oldest write
    // first.
    slots.clear();
    for (unsigned k = 0; k < 10; ++k)
        slots.push_back(lsq.allocateStore(seq++));
    EXPECT_EQ(slots.front(), 7);
    EXPECT_EQ(slots.back(), 6);
    for (unsigned k = 0; k < 10; ++k) {
        lsq.setAddress(slots[k], true, addr(k), now);
        lsq.commitStore(slots[k]);
    }
    lsq.tick(now++);
    for (unsigned k = 0; k < 10; ++k) {
        EXPECT_EQ(rig.mem->l1d(0).array().isDirty(
                      MemSystem::physAddr(addr(k))),
                  k < 2)
            << "store " << k;
    }
    while (!lsq.sqEmpty())
        lsq.tick(now++);

    // Stores S0-S7 fill slots 7-9 and 0-4, with load L0 between S1
    // and S2 and loads L1-L13 after S7. S1 (slot 8) and S5 (slot 2)
    // write one doubleword; S5's address arrives 50 cycles late.
    const Addr dword = 0x20000;
    std::vector<std::int32_t> stores;
    std::vector<std::int32_t> loads;
    std::vector<std::uint64_t> load_seqs;
    for (unsigned i = 0; i < 8; ++i) {
        stores.push_back(lsq.allocateStore(seq++));
        if (i == 1) {
            load_seqs.push_back(seq);
            loads.push_back(lsq.allocateLoad(seq++));
        }
    }
    for (unsigned i = 1; i < 14; ++i) {
        load_seqs.push_back(seq);
        loads.push_back(lsq.allocateLoad(seq++));
    }
    EXPECT_EQ(stores[1], 8);
    EXPECT_EQ(stores[5], 2);
    for (unsigned i = 0; i < 8; ++i) {
        lsq.setAddress(stores[i], true,
                       i == 1 || i == 5 ? dword : addr(i),
                       i == 5 ? now + 50 : now);
    }
    // L0 forwards from S1, its youngest older store to the
    // doubleword; L1 waits for S5, the youngest of all.
    lsq.setAddress(loads[0], false, dword, now);
    lsq.setAddress(loads[1], false, dword + 4, now);
    lsq.tick(now);
    ASSERT_EQ(lsq.completedLoads().size(), 1u);
    EXPECT_EQ(lsq.completedLoads()[0].seq, load_seqs[0]);
    EXPECT_EQ(lsq.completedLoads()[0].completion, now + 1);
    EXPECT_EQ(lsq.storeForwards(), 1u);
    lsq.completedLoads().clear();
    for (Cycle c = now + 1; c < now + 50; ++c) {
        lsq.tick(c);
        ASSERT_TRUE(lsq.completedLoads().empty()) << c;
    }
    lsq.tick(now + 50);
    ASSERT_EQ(lsq.completedLoads().size(), 1u);
    EXPECT_EQ(lsq.completedLoads()[0].seq, load_seqs[1]);
    EXPECT_EQ(lsq.completedLoads()[0].completion, now + 51);
    EXPECT_EQ(lsq.storeForwards(), 2u);
    EXPECT_EQ(loads.size(), 14u);
}

TEST(Lsq, OnlyTheOldestLeaves)
{
    ScopedThrowOnError guard;
    Rig rig;
    LoadStoreQueue &lsq = *rig.lsq;
    const auto l1 = lsq.allocateLoad(1);
    const auto l2 = lsq.allocateLoad(2);
    EXPECT_THROW(lsq.freeLoad(l2), std::runtime_error);
    lsq.freeLoad(l1);
    lsq.freeLoad(l2);
    EXPECT_THROW(lsq.freeLoad(l2), std::runtime_error); // queue empty.

    const auto s1 = lsq.allocateStore(3);
    const auto s2 = lsq.allocateStore(4);
    lsq.setAddress(s1, true, 0x1000, 5);
    lsq.setAddress(s2, true, 0x2000, 5);
    EXPECT_THROW(lsq.commitStore(s2), std::runtime_error);
    lsq.commitStore(s1);
    EXPECT_THROW(lsq.commitStore(s1), std::runtime_error);
    lsq.commitStore(s2);
}

TEST(Lsq, QueueSizesOutsideOneTo64AreRefusedByName)
{
    ScopedThrowOnError guard;
    const auto error = [](unsigned lq, unsigned sq) -> std::string {
        Rig rig;
        CoreParams cp;
        cp.loadQueueEntries = lq;
        cp.storeQueueEntries = sq;
        try {
            LoadStoreQueue lsq(cp, 0, *rig.mem, &rig.root);
        } catch (const std::runtime_error &e) {
            return e.what();
        }
        return "";
    };
    EXPECT_EQ(error(64, 64), "");
    for (unsigned n : {0u, 65u}) {
        EXPECT_NE(error(n, 10).find("loadQueueEntries is " +
                                    std::to_string(n)),
                  std::string::npos)
            << n;
        EXPECT_NE(error(16, n).find("storeQueueEntries is " +
                                    std::to_string(n)),
                  std::string::npos)
            << n;
    }
}

} // namespace
} // namespace s64v
