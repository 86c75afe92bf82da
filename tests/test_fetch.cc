#include "cpu/fetch.hh"

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
    CoreParams cp;
    MemParams mp;
    std::unique_ptr<MemSystem> mem;
    std::unique_ptr<BranchPredictor> bpred;
    std::unique_ptr<FetchUnit> fetch;
    InstrTrace trace;
    std::unique_ptr<VectorTraceSource> src;

    explicit Rig(const MemParams &mem_params = {}) : mp(mem_params)
    {
        mem = std::make_unique<MemSystem>(mp, 1, &root);
        bpred = std::make_unique<BranchPredictor>(cp.bpred, &root);
        fetch = std::make_unique<FetchUnit>(cp, 0, *bpred, *mem,
                                            &root);
    }

    void
    attach()
    {
        src = std::make_unique<VectorTraceSource>(trace);
        fetch->setSource(src.get());
    }

    void
    addSeq(Addr pc, unsigned n)
    {
        for (unsigned i = 0; i < n; ++i) {
            TraceRecord r;
            r.pc = pc + 4 * i;
            r.cls = InstrClass::IntAlu;
            trace.append(r);
        }
    }

    /** Run until the fetch queue holds >= n instrs (or max cycles). */
    Cycle
    runUntil(std::size_t n, Cycle max = 2000)
    {
        for (Cycle c = 0; c < max; ++c) {
            fetch->tick(c);
            if (fetch->queueSize() >= n)
                return c;
        }
        return max;
    }
};

TEST(Fetch, DeliversSequentialInstructions)
{
    Rig rig;
    rig.addSeq(0x1000, 16);
    rig.attach();
    rig.runUntil(16);
    ASSERT_EQ(rig.fetch->queueSize(), 16u);
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(rig.fetch->front().rec.pc, 0x1000u + 4 * i);
        rig.fetch->popFront();
    }
    EXPECT_TRUE(rig.fetch->exhausted());
}

TEST(Fetch, GroupsRespectAlignmentBoundary)
{
    Rig rig;
    // Starting mid-block: first group only reaches the 32-B boundary.
    rig.addSeq(0x1018, 10);
    rig.attach();
    // First group = 2 instrs (0x1018, 0x101c); lands first.
    for (Cycle c = 0; c < 200 && rig.fetch->queueSize() < 2; ++c)
        rig.fetch->tick(c);
    EXPECT_GE(rig.fetch->queueSize(), 2u);
}

TEST(Fetch, PipelineLatencyBeforeDelivery)
{
    Rig rig;
    rig.addSeq(0x1000, 4);
    rig.attach();
    rig.fetch->tick(0);
    // No instruction can be available before the fetch pipe depth.
    for (Cycle c = 1; c < 4; ++c) {
        rig.fetch->tick(c);
        EXPECT_EQ(rig.fetch->queueSize(), 0u) << c;
    }
}

TEST(Fetch, MispredictStallsUntilRedirect)
{
    Rig rig;
    // A conditional branch that is taken: the cold BHT predicts
    // not-taken, so this is a mispredict.
    TraceRecord br;
    br.pc = 0x1000;
    br.cls = InstrClass::BranchCond;
    br.ea = 0x2000;
    br.flags = kFlagTaken;
    rig.trace.append(br);
    for (unsigned i = 0; i < 8; ++i) {
        TraceRecord r;
        r.pc = 0x2000 + 4 * i;
        r.cls = InstrClass::IntAlu;
        rig.trace.append(r);
    }
    rig.attach();

    for (Cycle c = 0; c < 500; ++c)
        rig.fetch->tick(c);
    EXPECT_TRUE(rig.fetch->stalledOnBranch());
    // Only the branch itself was delivered.
    EXPECT_EQ(rig.fetch->queueSize(), 1u);

    rig.fetch->redirect(510);
    for (Cycle c = 500; c < 1200; ++c)
        rig.fetch->tick(c);
    EXPECT_FALSE(rig.fetch->stalledOnBranch());
    EXPECT_EQ(rig.fetch->queueSize(), 9u);
}

TEST(Fetch, CorrectlyPredictedTakenBranchNoStall)
{
    Rig rig;
    // Warm the predictor so the branch predicts taken.
    for (int i = 0; i < 4; ++i)
        rig.bpred->update(0x1000, true);

    TraceRecord br;
    br.pc = 0x1000;
    br.cls = InstrClass::BranchCond;
    br.ea = 0x3000;
    br.flags = kFlagTaken;
    rig.trace.append(br);
    for (unsigned i = 0; i < 4; ++i) {
        TraceRecord r;
        r.pc = 0x3000 + 4 * i;
        r.cls = InstrClass::IntAlu;
        rig.trace.append(r);
    }
    rig.attach();

    for (Cycle c = 0; c < 900; ++c)
        rig.fetch->tick(c);
    EXPECT_FALSE(rig.fetch->stalledOnBranch());
    EXPECT_EQ(rig.fetch->queueSize(), 5u);
}

TEST(Fetch, UnconditionalBranchesNeverMispredict)
{
    Rig rig;
    TraceRecord br;
    br.pc = 0x1000;
    br.cls = InstrClass::Call;
    br.ea = 0x5000;
    br.flags = kFlagTaken;
    rig.trace.append(br);
    rig.addSeq(0x5000, 4);
    rig.attach();
    for (Cycle c = 0; c < 900; ++c)
        rig.fetch->tick(c);
    EXPECT_FALSE(rig.fetch->stalledOnBranch());
    EXPECT_EQ(rig.fetch->queueSize(), 5u);
}

TEST(Fetch, QueueCapacityBoundsFetch)
{
    Rig rig;
    rig.addSeq(0x1000, 256);
    rig.attach();
    for (Cycle c = 0; c < 400; ++c)
        rig.fetch->tick(c);
    EXPECT_LE(rig.fetch->queueSize(), rig.cp.fetchQueueEntries);
}

TEST(Fetch, DiscontinuityBreaksGroup)
{
    Rig rig;
    // Two instructions with a PC jump between them (trap entry).
    TraceRecord a;
    a.pc = 0x1000;
    a.cls = InstrClass::IntAlu;
    rig.trace.append(a);
    TraceRecord b;
    b.pc = 0x9000;
    b.cls = InstrClass::IntAlu;
    rig.trace.append(b);
    rig.attach();
    for (Cycle c = 0; c < 900 && rig.fetch->queueSize() < 2; ++c)
        rig.fetch->tick(c);
    ASSERT_EQ(rig.fetch->queueSize(), 2u);
    EXPECT_EQ(rig.fetch->front().rec.pc, 0x1000u);
}

TEST(Fetch, DeliversTheTraceInOrderThroughTheRing)
{
    // Ten times the 24-entry queue: straight runs, block crossings,
    // calls and trap-entry jumps, drained one instruction every other
    // cycle so the ring fills and wraps.
    Rig rig;
    Addr pc = 0x1000;
    for (unsigned i = 0; i < 240; ++i) {
        TraceRecord r;
        r.pc = pc;
        r.cls = InstrClass::IntAlu;
        pc += 4;
        if (i % 37 == 36) {
            r.cls = InstrClass::Call;
            r.ea = pc + 0x400;
            r.flags = kFlagTaken;
            pc = r.ea;
        } else if (i % 53 == 52) {
            pc += 0x2000; // trap entry.
        }
        rig.trace.append(r);
    }
    rig.attach();

    std::vector<Addr> delivered;
    for (Cycle c = 0; c < 20000 && !rig.fetch->exhausted(); ++c) {
        rig.fetch->tick(c);
        EXPECT_LE(rig.fetch->queueSize(), rig.cp.fetchQueueEntries);
        if (c % 2 == 0 && !rig.fetch->queueEmpty()) {
            delivered.push_back(rig.fetch->front().rec.pc);
            rig.fetch->popFront();
        }
    }
    ASSERT_EQ(delivered.size(), rig.trace.size());
    for (std::size_t i = 0; i < delivered.size(); ++i)
        EXPECT_EQ(delivered[i], rig.trace[i].pc) << i;
}

TEST(Fetch, AGroupNeverLandsBeforeTheOneAheadOfIt)
{
    // A one-entry ITLB: the first group pays a page walk on a line
    // already in the L1I, and the next group, on the same page and
    // line, would land sooner. It lands with the first.
    MemParams mp;
    mp.itlb.entries = 1;
    mp.itlb.assoc = 1;
    Rig rig(mp);
    const Addr page = 0x10000;
    rig.mem->fetch(0, page, 0);            // the line, and its page.
    rig.mem->fetch(0, page + 0x40000, 0);  // evicts the page.
    rig.addSeq(page, 16);                  // two fetch blocks.
    rig.attach();

    const Cycle start = 1000; // both lines are in by now.
    const Cycle first_lands =
        start + mp.itlb.walkLatency + mp.l1i.latency + 2;
    const Cycle second_would = start + 1 + mp.l1i.latency + 2;
    ASSERT_LT(second_would, first_lands);
    for (Cycle c = start; c < first_lands; ++c) {
        rig.fetch->tick(c);
        ASSERT_TRUE(rig.fetch->queueEmpty()) << c;
    }
    rig.fetch->tick(first_lands);
    ASSERT_EQ(rig.fetch->queueSize(), 16u);
    for (unsigned i = 0; i < 16; ++i) {
        EXPECT_EQ(rig.fetch->front().rec.pc, page + 4 * i);
        rig.fetch->popFront();
    }
}

TEST(Fetch, EmptyQueueIsRefusedByName)
{
    ScopedThrowOnError guard;
    Rig rig;
    CoreParams cp;
    cp.fetchQueueEntries = 0;
    std::string err;
    try {
        FetchUnit fetch(cp, 0, *rig.bpred, *rig.mem, &rig.root);
    } catch (const std::runtime_error &e) {
        err = e.what();
    }
    EXPECT_NE(err.find("fetchQueueEntries is 0"), std::string::npos)
        << err;
}

} // namespace
} // namespace s64v
