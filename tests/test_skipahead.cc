/**
 * @file
 * Skip-ahead kernel tests (sim/clocked.hh, SystemParams::skipAhead):
 * the fast engine — skip-ahead with quiescence memoization, idle
 * components left unticked and stage gating — must be an invisible
 * optimization. At the kernel level: probes fire at exactly their
 * registered cycles, a probe registered at the cycle cap fires in
 * neither mode, a scheduled probe's named cycle bounds the jump, a
 * machine that drains inside a skipped window still exits Drained at
 * the reference cycle, the memo asks a component only after it
 * ticked, and every settle names the same cycle for each component
 * on both engines. At the system level: SimResult and
 * the exported stats JSON must be bit-identical between the plain
 * per-cycle loop and skip-ahead — SPECint and TPC-C,
 * uniprocessor, 4P and 16P — checkpoints cut at a cycle the
 * uninterrupted run elided, or by the other engine, must restore
 * into the same bits, and parallel sweeps must match serial ones.
 */

#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.hh"
#include "common/logging.hh"
#include "exp/sweep.hh"
#include "model/params.hh"
#include "obs/stats_export.hh"
#include "sim/clocked.hh"
#include "sim/system.hh"
#include "workload/generator.hh"
#include "workload/workloads.hh"

#include "hand_trace.hh"

namespace s64v
{
namespace
{

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

// --- Kernel-level: probe alignment under skip-ahead ---------------

/**
 * Does work only at multiples of @p stride (quiescent in between —
 * ticks on other cycles are no-ops, honoring the nextWorkCycle()
 * contract), drains once it has worked at or past @p done_at. asks
 * counts nextWorkCycle() calls so the tests can see the memo engage,
 * ticks counts tick() calls, and settled records every cycle the
 * kernel settles it through.
 */
class StridedComponent : public Clocked
{
  public:
    StridedComponent(Cycle stride, Cycle done_at)
        : stride_(stride), doneAt_(done_at)
    {
    }

    void tick(Cycle cycle) override
    {
        ++ticks;
        if (cycle % stride_ == 0)
            work.push_back(cycle);
    }
    bool done() const override
    {
        return !work.empty() && work.back() >= doneAt_;
    }
    Cycle nextWorkCycle(Cycle now) const override
    {
        ++asks;
        return (now + stride_ - 1) / stride_ * stride_;
    }
    void settle(Cycle through) override { settled.push_back(through); }

    std::vector<Cycle> work;
    std::vector<Cycle> settled;
    std::uint64_t ticks = 0;
    mutable std::uint64_t asks = 0;

  private:
    Cycle stride_;
    Cycle doneAt_;
};

/** Never drains, never has work: only probes make the kernel move. */
class QuiescentComponent : public Clocked
{
  public:
    void tick(Cycle cycle) override { (void)cycle; }
    Cycle nextWorkCycle(Cycle) const override { return kCycleNever; }
};

TEST(SkipAheadKernel, ProbesFireAtExactRegisteredCycles)
{
    // The component works every 97 cycles; the probe's 50-cycle grid
    // is mostly misaligned with that, so every firing below proves
    // the kernel landed on the registered cycle, not a work cycle.
    std::vector<Cycle> plain_fired, skip_fired;
    for (bool skip : {false, true}) {
        CycleKernel kernel;
        kernel.setSkipAhead(skip);
        StridedComponent comp(97, 1000);
        kernel.attach(&comp);
        std::vector<Cycle> &fired = skip ? skip_fired : plain_fired;
        kernel.attachProbe(13, 50, [&](Cycle c) {
            fired.push_back(c);
            return true;
        });
        const CycleKernel::Outcome out = kernel.run(100000);
        EXPECT_EQ(out.stop, CycleKernel::Stop::Drained);
        EXPECT_EQ(kernel.elidedCycles() > 0, skip);
    }
    ASSERT_FALSE(plain_fired.empty());
    EXPECT_EQ(plain_fired.front(), 13u);
    EXPECT_EQ(plain_fired[1] - plain_fired[0], 50u);
    EXPECT_EQ(skip_fired, plain_fired);
}

TEST(SkipAheadKernel, ProbeAtTheCycleCapFiresInNeitherMode)
{
    constexpr std::uint64_t kCap = 500;
    for (bool skip : {false, true}) {
        SCOPED_TRACE(skip ? "skip" : "plain");
        CycleKernel kernel;
        kernel.setSkipAhead(skip);
        StridedComponent comp(97, kCycleNever);
        kernel.attach(&comp);
        std::vector<Cycle> at_cap, before_cap;
        kernel.attachProbe(kCap, 1000, [&](Cycle c) {
            at_cap.push_back(c);
            return true;
        });
        kernel.attachProbe(kCap - 1, 1000, [&](Cycle c) {
            before_cap.push_back(c);
            return true;
        });
        const CycleKernel::Outcome out = kernel.run(kCap);
        EXPECT_EQ(out.stop, CycleKernel::Stop::CycleCap);
        EXPECT_EQ(out.cycle, kCap);
        // The loop never visits the cap cycle, in either mode; the
        // cycle before it is a regular visited cycle.
        EXPECT_TRUE(at_cap.empty());
        EXPECT_EQ(before_cap, (std::vector<Cycle>{kCap - 1}));
    }
}

TEST(SkipAheadKernel, ScheduledProbeBoundsTheJump)
{
    // A watchdog-shaped scheduled probe: it names the cycle 100 past
    // each run, except that at 200 it names 330 and polls until a
    // run at or after 260. With a fully quiescent machine the kernel
    // visits exactly the named cycles plus a periodic probe's 250,
    // 260 and 270: it never jumps past a named cycle, the polled runs
    // see the visits at 250 and 260, and polling ends before 270.
    CycleKernel kernel;
    kernel.setSkipAhead(true);
    QuiescentComponent comp;
    kernel.attach(&comp);
    std::vector<Cycle> seen;
    kernel.attachScheduledProbe(0, [&](Cycle c) {
        seen.push_back(c);
        if (c >= 200 && c < 330)
            return ProbeNext{330, c < 260};
        return ProbeNext{c + 100, false};
    });
    kernel.attachProbe(250, 10, [](Cycle c) { return c < 270; });
    const CycleKernel::Outcome out = kernel.run(450);
    EXPECT_EQ(out.stop, CycleKernel::Stop::CycleCap);
    EXPECT_EQ(seen, (std::vector<Cycle>{0, 100, 200, 250, 260, 330,
                                        430}));
    // Every visit but 270 ran the scheduled probe.
    EXPECT_EQ(kernel.elidedCycles(), 450u - seen.size() - 1);
}

TEST(SkipAheadKernel, DrainInsideASkippedWindowExitsAtTheSameCycle)
{
    // The component's last work cycle is 200; with a 50-cycle stride
    // the skip path would otherwise jump from 201 toward the cap.
    // Both modes must report Drained at cycle 201.
    for (bool skip : {false, true}) {
        SCOPED_TRACE(skip ? "skip" : "plain");
        CycleKernel kernel;
        kernel.setSkipAhead(skip);
        StridedComponent comp(50, 200);
        kernel.attach(&comp);
        const CycleKernel::Outcome out = kernel.run(100000);
        EXPECT_EQ(out.stop, CycleKernel::Stop::Drained);
        EXPECT_EQ(out.cycle, 201u);
        EXPECT_EQ(kernel.elidedCycles() > 0, skip);
    }
}

// --- Kernel-level: quiescence memoization -------------------------

/** Run @p busy and @p idle under skip-ahead; @return cycles visited. */
std::uint64_t
runCountingVisits(StridedComponent &busy, StridedComponent &idle)
{
    CycleKernel kernel;
    kernel.setSkipAhead(true);
    kernel.attach(&busy);
    kernel.attach(&idle);
    std::uint64_t visits = 0;
    kernel.attachScheduledProbe(0, [&](Cycle) {
        ++visits;
        return ProbeNext{kCycleNever, true};
    });
    const CycleKernel::Outcome out = kernel.run(100000);
    EXPECT_EQ(out.stop, CycleKernel::Stop::Drained);
    return visits;
}

TEST(CycleKernelMemo, MemoizedRunIsIdenticalAndSkipsIdleScans)
{
    // A busy component (stride 7) and a mostly idle one (stride
    // 1000): at nearly every visited cycle the idle component's
    // cached answer lies in the future, so the kernel neither re-asks
    // nor ticks it. Both still work on exactly the plain loop's cycles
    // and are settled through the same cycles.
    StridedComponent plain_busy(7, 7000), plain_idle(1000, 7000);
    CycleKernel plain;
    plain.attach(&plain_busy);
    plain.attach(&plain_idle);
    EXPECT_EQ(plain.run(100000).stop, CycleKernel::Stop::Drained);

    StridedComponent busy(7, 7000), idle(1000, 7000);
    const std::uint64_t visits = runCountingVisits(busy, idle);
    EXPECT_EQ(busy.work, plain_busy.work);
    EXPECT_EQ(idle.work, plain_idle.work);
    EXPECT_LT(idle.ticks, visits);
    EXPECT_EQ(idle.settled, plain_idle.settled);
    // The memo must actually engage: the idle component is asked far
    // less often than the kernel visits.
    EXPECT_LT(idle.asks * 10, visits);
}

TEST(CycleKernelMemo, AsksOnlyAfterATick)
{
    // An answer holds until the component's next tick: each component
    // is ticked only on its work cycles and asked once after every
    // tick that leaves it live (its last tick, at 7000, leaves it
    // done, so it is not asked again).
    StridedComponent busy(7, 7000), idle(1000, 7000);
    const std::uint64_t visits = runCountingVisits(busy, idle);
    for (const StridedComponent *c : {&busy, &idle}) {
        EXPECT_EQ(c->ticks, c->work.size());
        EXPECT_EQ(c->asks, c->ticks - 1);
    }
    EXPECT_EQ(busy.ticks, 1001u);
    EXPECT_EQ(idle.ticks, 8u);
    EXPECT_EQ(visits, 1008u);
}

// --- Kernel-level: the cycle each component is settled through ----

/** A StridedComponent whose tick panics at cycle @p at. */
class PanickingComponent : public StridedComponent
{
  public:
    PanickingComponent(Cycle stride, Cycle at)
        : StridedComponent(stride, kCycleNever), at_(at)
    {
    }

    void tick(Cycle cycle) override
    {
        if (cycle == at_)
            panic("component panics at cycle %llu",
                  static_cast<unsigned long long>(cycle));
        StridedComponent::tick(cycle);
    }

  private:
    Cycle at_;
};

TEST(CycleKernel, SettleNamesTheCycleEachComponentIsAccountedThrough)
{
    // Every settle names, for each component, one past the last cycle
    // it is accounted for, whether or not the fast engine ticked it
    // there: both engines give the same sequence.
    for (bool skip : {false, true}) {
        SCOPED_TRACE(skip ? "fast engine" : "plain loop");

        // (a) A periodic probe at 50, 150, 250 and 350 settles both
        // components through the next cycle, the idle one too, which
        // the fast engine ticks only at cycle 0. (b) The
        // busy one last works at 388 before the cap: the fast engine
        // skips from 389 to the cap and settles both through it.
        CycleKernel kernel;
        kernel.setSkipAhead(skip);
        StridedComponent busy(97, kCycleNever), idle(1000, kCycleNever);
        kernel.attach(&busy);
        kernel.attach(&idle);
        kernel.attachProbe(50, 100, [](Cycle) { return true; });
        std::vector<Cycle> visits;
        kernel.attachScheduledProbe(0, [&](Cycle c) {
            visits.push_back(c);
            return ProbeNext{kCycleNever, true};
        });
        const CycleKernel::Outcome out = kernel.run(430);
        EXPECT_EQ(out.stop, CycleKernel::Stop::CycleCap);
        EXPECT_EQ(out.cycle, 430u);
        const std::vector<Cycle> through{51, 151, 251, 351, 430};
        EXPECT_EQ(busy.settled, through);
        EXPECT_EQ(idle.settled, through);
        EXPECT_EQ(idle.ticks, skip ? 1u : 430u);
        ASSERT_FALSE(visits.empty());
        EXPECT_EQ(visits.back(), skip ? 388u : 429u);

        // (c) The second of three components panics in its tick at
        // 60. A settle from the catch, as the crash hook's salvage
        // makes, names 61 for the two the pass reached and 60 for the
        // third.
        CycleKernel crashing;
        crashing.setSkipAhead(skip);
        StridedComponent first(7, kCycleNever), third(1000, kCycleNever);
        PanickingComponent second(20, 60);
        crashing.attach(&first);
        crashing.attach(&second);
        crashing.attach(&third);
        bool panicked = false;
        {
            ScopedThrowOnError isolate;
            try {
                crashing.run(1000);
            } catch (const std::runtime_error &) {
                panicked = true;
                crashing.settle();
            }
        }
        EXPECT_TRUE(panicked);
        EXPECT_EQ(crashing.currentCycle(), 60u);
        EXPECT_EQ(first.settled, (std::vector<Cycle>{61}));
        EXPECT_EQ(second.settled, (std::vector<Cycle>{61}));
        EXPECT_EQ(third.settled, (std::vector<Cycle>{60}));
    }
}

// --- System-level: bit-identity of the full model -----------------

std::vector<InstrTrace>
makeTraces(const WorkloadProfile &profile, unsigned num_cpus,
           std::size_t instrs)
{
    TraceGenerator gen(profile, num_cpus);
    std::vector<InstrTrace> traces;
    for (unsigned cpu = 0; cpu < num_cpus; ++cpu)
        traces.push_back(gen.generate(instrs, cpu));
    return traces;
}

void
attachAll(System &sys, const std::vector<InstrTrace> &traces)
{
    for (CpuId cpu = 0; cpu < traces.size(); ++cpu)
        sys.attachTrace(cpu, traces[cpu]);
}

struct RunOutcome
{
    SimResult res;
    std::string json; ///< the stats JSON document, run block included.
};

RunOutcome
runMode(SystemParams sp, const std::vector<InstrTrace> &traces,
        bool skip)
{
    sp.skipAhead = skip;
    System sys(sp);
    attachAll(sys, traces);
    RunOutcome out;
    out.res = sys.run();
    out.json = obs::exportStatsJson(sys.root(), &out.res);
    return out;
}

void
expectBitIdenticalModes(const MachineParams &machine,
                        const WorkloadProfile &profile,
                        std::size_t instrs)
{
    SystemParams sp = machine.sys;
    sp.warmupInstrs = instrs / 5;
    const std::vector<InstrTrace> traces =
        makeTraces(profile, sp.numCpus, instrs);

    const RunOutcome plain = runMode(sp, traces, false);
    const RunOutcome skip = runMode(sp, traces, true);
    ASSERT_FALSE(plain.res.hitCycleCap);

    EXPECT_EQ(diffSim(plain.res, skip.res), "");
    EXPECT_EQ(plain.json, skip.json);
    // The optimization must actually engage — and never report
    // phantom elisions on the reference path.
    EXPECT_EQ(plain.res.elidedCycles, 0u);
    EXPECT_GT(skip.res.elidedCycles, 0u);
}

TEST(SkipAheadIdentity, UpSpecint)
{
    expectBitIdenticalModes(sparc64vBase(1), specint95Profile(), 20000);
}

TEST(SkipAheadIdentity, UpTpcc)
{
    expectBitIdenticalModes(sparc64vBase(1), tpccProfile(), 20000);
}

TEST(SkipAheadIdentity, Smp4Specint)
{
    expectBitIdenticalModes(sparc64vBase(4), specint95Profile(), 6000);
}

TEST(SkipAheadIdentity, Smp4Tpcc)
{
    expectBitIdenticalModes(sparc64vBase(4), tpccProfile(), 6000);
}

TEST(SkipAheadIdentity, Smp16Tpcc)
{
    // Sixteen cores share one bus and one memory controller.
    expectBitIdenticalModes(sparc64vBase(16), tpccProfile(), 4000);
}

// The fast engine's stage gates branch on these machine knobs (issue
// width, station layout, forwarding, speculative dispatch, special-
// instruction mode, MSHR pressure): the fast == plain proof covers
// each of them, on the workloads above, beside the base machine.

struct IdentityMachine
{
    const char *name;
    MachineParams (*build)(unsigned num_cpus);
};

const IdentityMachine kIdentityMachines[] = {
    {"Issue2",
     [](unsigned n) { return withIssueWidth(sparc64vBase(n), 2); }},
    {"UnifiedRs",
     [](unsigned n) { return withUnifiedRs(sparc64vBase(n), true); }},
    {"NoForwarding",
     [](unsigned n) {
         return withDataForwarding(sparc64vBase(n), false);
     }},
    {"NoSpeculativeDispatch",
     [](unsigned n) {
         return withSpeculativeDispatch(sparc64vBase(n), false);
     }},
    {"FixedPenalty",
     [](unsigned n) {
         MachineParams m = sparc64vBase(n);
         m.sys.core.specialMode = SpecialInstrMode::FixedPenalty;
         return m;
     }},
    {"OneCycle",
     [](unsigned n) {
         MachineParams m = sparc64vBase(n);
         m.sys.core.specialMode = SpecialInstrMode::OneCycle;
         return m;
     }},
    {"FewMshrs",
     [](unsigned n) {
         MachineParams m = sparc64vBase(n);
         m.sys.mem.l1d.mshrs = 4;
         m.sys.mem.l2.mshrs = 4;
         return m;
     }},
};

struct IdentityWorkload
{
    const char *name;
    WorkloadProfile (*profile)();
    unsigned cpus;
    std::size_t instrs;
};

const IdentityWorkload kIdentityWorkloads[] = {
    {"UpSpecint", specint95Profile, 1, 20000},
    {"UpTpcc", tpccProfile, 1, 20000},
    {"Smp4Tpcc", tpccProfile, 4, 6000},
    {"Smp16Tpcc", tpccProfile, 16, 4000},
};

class SkipAheadIdentityMachines
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(SkipAheadIdentityMachines, FastEqualsPlain)
{
    const IdentityMachine &m = kIdentityMachines[std::get<0>(GetParam())];
    const IdentityWorkload &w =
        kIdentityWorkloads[std::get<1>(GetParam())];
    expectBitIdenticalModes(m.build(w.cpus), w.profile(), w.instrs);
}

INSTANTIATE_TEST_SUITE_P(
    Machines, SkipAheadIdentityMachines,
    ::testing::Combine(
        ::testing::Range(0, static_cast<int>(std::size(kIdentityMachines))),
        ::testing::Range(0,
                         static_cast<int>(std::size(kIdentityWorkloads)))),
    [](const ::testing::TestParamInfo<std::tuple<int, int>> &info) {
        return std::string(
                   kIdentityMachines[std::get<0>(info.param)].name) +
            "_" + kIdentityWorkloads[std::get<1>(info.param)].name;
    });

// --- Stage wake rules ----------------------------------------------
//
// With stage gating (the fast engine) a stage sleeps until its wake
// cycle, and the events that can make it busier wake it early (see
// Core::tick). Each test below runs a trace that exercises one such
// event under both engines: the stats must agree, and the fast engine
// must actually have left the stage uncalled on some tick. Without
// its rule each of them fails (the engines disagree, or the fast
// engine deadlocks), except the two Special tests: no instruction
// class completes before the dispatch-time prediction in a way a
// waiting consumer could use, so they pin the engines together on
// those machines.

/** @p cpus hand traces (see tests/hand_trace.hh) of @p instrs. */
std::vector<InstrTrace>
handTraces(std::uint64_t seed, std::size_t instrs, unsigned cpus)
{
    std::vector<InstrTrace> traces;
    for (unsigned cpu = 0; cpu < cpus; ++cpu)
        traces.push_back(testutil::handTrace(seed, instrs, cpu));
    return traces;
}

/**
 * Run @p machine on @p traces under both engines: the run outcome
 * and the stats JSON must match, and the fast engine must have left
 * @p stage uncalled on at least one tick (the plain loop calls every
 * stage on every tick).
 */
void
expectWakeRuleHolds(MachineParams machine,
                    const std::vector<InstrTrace> &traces,
                    Core::Stage stage)
{
    machine.sys.numCpus = static_cast<unsigned>(traces.size());
    machine.sys.warmupInstrs = traces[0].size() / 5;
    RunOutcome out[2];
    for (bool skip : {false, true}) {
        SCOPED_TRACE(skip ? "fast engine" : "plain loop");
        SystemParams sp = machine.sys;
        sp.skipAhead = skip;
        System sys(sp);
        attachAll(sys, traces);
        {
            // A wake that never comes stalls the machine: the
            // watchdog's panic becomes this test's failure.
            ScopedThrowOnError isolate;
            ASSERT_NO_THROW(out[skip].res = sys.run());
        }
        out[skip].json = obs::exportStatsJson(sys.root(), &out[skip].res);
        std::uint64_t runs = 0;
        std::uint64_t ticks = 0;
        for (CpuId cpu = 0; cpu < traces.size(); ++cpu) {
            runs += sys.core(cpu).stageRuns(stage);
            ticks += sys.core(cpu).ticks();
        }
        if (skip)
            EXPECT_LT(runs, ticks) << "the fast engine never skipped it";
        else
            EXPECT_EQ(runs, ticks);
    }
    ASSERT_FALSE(out[0].res.hitCycleCap);
    EXPECT_EQ(diffSim(out[0].res, out[1].res), "");
    EXPECT_EQ(out[0].json, out[1].json);
}

TEST(StageWake, MergedMissRetiredBeforeItsCancelWakesDispatch)
{
    // A load merges into a fill that lands right after it issues, so
    // it completes, and retires, before its miss-cancel broadcast; its
    // consumer, waiting on the optimistic hit schedule, may select as
    // soon as it retires. A chain of five divides and a multiply
    // delays the second load's address until just before the first
    // load's memory fill lands.
    InstrTrace t("merged");
    Addr pc = 0x100000;
    auto add = [&](InstrClass cls, RegId dst, RegId src1, Addr ea) {
        TraceRecord r;
        r.pc = pc;
        pc += 4;
        r.cls = cls;
        r.dst = dst;
        r.src1 = src1;
        r.src2 = cls == InstrClass::IntAlu || r.isMem() ? kNoReg : src1;
        r.ea = ea;
        r.size = r.isMem() ? 8 : 0;
        t.append(r);
    };
    constexpr Addr kLine = 0x40000000;
    for (int i = 0; i < 5; ++i)
        add(InstrClass::IntDiv, 2, 2, 0);
    add(InstrClass::IntMul, 2, 2, 0);
    add(InstrClass::Load, 1, kNoReg, kLine);   // misses to memory.
    add(InstrClass::Load, 3, 2, kLine + 8);    // merges into its fill.
    add(InstrClass::IntAlu, 4, 3, 0);          // the waiting consumer.
    expectWakeRuleHolds(sparc64vBase(), {t}, Core::Stage::Dispatch);
}

TEST(StageWake, RetirementWithoutForwardingWakesDispatch)
{
    // Without forwarding a result reaches its consumers later than the
    // dispatch-to-execute distance: the producer's retirement, which
    // makes the operand architectural, is what releases them.
    expectWakeRuleHolds(withDataForwarding(sparc64vBase(), false),
                        handTraces(1, 2000, 1), Core::Stage::Dispatch);
}

TEST(StageWake, ConfirmedReadinessWakesDispatchWithoutSpeculation)
{
    // Without speculative dispatch a consumer waits for its
    // producer's confirmed readiness; every event that sets it wakes
    // the select.
    expectWakeRuleHolds(withSpeculativeDispatch(sparc64vBase(), false),
                        handTraces(1, 2000, 1), Core::Stage::Dispatch);
}

/** Hand traces whose serializing Specials produce a register. */
std::vector<InstrTrace>
specialProducerTraces(std::uint64_t seed, std::size_t instrs)
{
    const InstrTrace in = testutil::handTrace(seed, instrs, 0);
    InstrTrace out("hand");
    unsigned k = 0;
    for (TraceRecord r : in.records()) {
        if (r.cls == InstrClass::Special)
            r.dst = static_cast<RegId>(1 + k++ % 31);
        out.append(r);
    }
    return {out};
}

TEST(StageWake, SpecialResultInFixedPenaltyModeWakesDispatch)
{
    // A zero penalty completes a Special one cycle before the
    // dispatch-time prediction of its result.
    MachineParams m = sparc64vBase();
    m.sys.core.specialMode = SpecialInstrMode::FixedPenalty;
    m.sys.core.specialPenalty = 0;
    expectWakeRuleHolds(m, specialProducerTraces(2, 3000),
                        Core::Stage::Dispatch);
}

TEST(StageWake, SpecialResultInOneCycleModeWakesDispatch)
{
    // A one-cycle Special completes exactly on its prediction.
    MachineParams m = sparc64vBase();
    m.sys.core.specialMode = SpecialInstrMode::OneCycle;
    expectWakeRuleHolds(m, specialProducerTraces(2, 3000),
                        Core::Stage::Dispatch);
}

TEST(StageWake, MispredictRedirectWakesFetch)
{
    // Fetch sleeps while it waits on a mispredicted branch; only the
    // branch's execute (the redirect) restarts it.
    expectWakeRuleHolds(sparc64vBase(), handTraces(1, 2000, 1),
                        Core::Stage::Fetch);
}

TEST(StageWake, IssueDrainingAFullFetchQueueWakesFetch)
{
    // A fetch queue without room for a group sleeps until issue pops
    // from it; the narrow machine keeps the queue full more often.
    expectWakeRuleHolds(withIssueWidth(sparc64vBase(), 2),
                        handTraces(1, 2000, 1), Core::Stage::Fetch);
}

TEST(StageWake, CommittedStoreWakesTheLsq)
{
    // A store's write may issue only once it commits: the LSQ sleeps
    // past its address until the commit stage wakes it.
    expectWakeRuleHolds(sparc64vBase(), handTraces(1, 2000, 1),
                        Core::Stage::Lsq);
}

TEST(StageWake, ForwardedLoadWakesDispatch)
{
    // A load served from the store queue (or a hit that beats its
    // schedule) completes before the hit schedule its consumers were
    // told at dispatch; shared data on two CPUs makes these common.
    const std::vector<InstrTrace> traces = handTraces(3, 6000, 2);
    expectWakeRuleHolds(sparc64vBase(2), traces, Core::Stage::Dispatch);
    expectWakeRuleHolds(sparc64vBase(2), traces, Core::Stage::Lsq);
}

// --- Checkpoint cut inside an elided stall window -----------------

/**
 * Checkpoint-stop a skip-ahead run at @p at, restore a fresh system
 * and finish it, returning the resumed outcome plus the total cycles
 * the two legs elided.
 */
RunOutcome
runThroughCheckpoint(const SystemParams &sp,
                     const std::vector<InstrTrace> &traces, Cycle at,
                     const std::string &path,
                     std::uint64_t *legs_elided)
{
    *legs_elided = 0;
    {
        SystemParams cp = sp;
        cp.checkpoint.atCycle = at;
        cp.checkpoint.path = path;
        cp.checkpoint.stopAfter = true;
        System sys(cp);
        attachAll(sys, traces);
        const SimResult first = sys.run();
        EXPECT_TRUE(first.stoppedAtCheckpoint);
        *legs_elided += first.elidedCycles;
    }
    System sys(sp);
    attachAll(sys, traces);
    ckpt::restoreSystemCheckpoint(sys, path);
    RunOutcome out;
    out.res = sys.run();
    out.json = obs::exportStatsJson(sys.root(), &out.res);
    *legs_elided += out.res.elidedCycles;
    return out;
}

void
expectElidedWindowCutRestores(const WorkloadProfile &profile,
                              unsigned num_cpus, std::size_t instrs,
                              const char *ckpt_name)
{
    SystemParams sp = sparc64vBase(num_cpus).sys;
    sp.warmupInstrs = instrs / 5;
    sp.skipAhead = true;
    const std::vector<InstrTrace> traces =
        makeTraces(profile, num_cpus, instrs);

    const RunOutcome base = runMode(sp, traces, true);
    ASSERT_FALSE(base.res.hitCycleCap);
    ASSERT_GT(base.res.elidedCycles, 0u);

    // Scan cuts across the measured window. A cut inside a window
    // the uninterrupted run skipped forces a visit there, splitting
    // the window: the two legs then elide strictly fewer cycles than
    // the unbroken run. Stop once a cut provably landed inside a
    // window; every cut tried along the way — inside or between
    // windows — must restore bit-identically.
    bool cut_inside_window = false;
    for (unsigned k = 1; k < 16 && !cut_inside_window; ++k) {
        const Cycle at =
            base.res.warmupEndCycle + base.res.cycles * k / 16;
        SCOPED_TRACE("checkpoint at cycle " + std::to_string(at));
        const std::string path = tempPath(ckpt_name);
        std::uint64_t legs_elided = 0;
        const RunOutcome resumed = runThroughCheckpoint(
            sp, traces, at, path, &legs_elided);
        EXPECT_EQ(diffSim(base.res, resumed.res), "");
        EXPECT_EQ(base.json, resumed.json);
        if (legs_elided < base.res.elidedCycles)
            cut_inside_window = true;
        std::remove(path.c_str());
    }
    EXPECT_TRUE(cut_inside_window)
        << "no probed cut landed inside an elided window";
}

TEST(SkipAheadCheckpoint, UpCutInsideElidedWindowRestores)
{
    // TPC-C: its off-chip misses give long elided stall windows, so
    // the cut scan terminates quickly.
    expectElidedWindowCutRestores(tpccProfile(), 1, 20000,
                                  "skip_up.ckpt");
}

TEST(SkipAheadCheckpoint, Smp4CutInsideElidedWindowRestores)
{
    expectElidedWindowCutRestores(tpccProfile(), 4, 6000,
                                  "skip_smp.ckpt");
}

void
expectCheckpointsInterchange(const WorkloadProfile &profile,
                             unsigned num_cpus, std::size_t instrs)
{
    SystemParams sp = sparc64vBase(num_cpus).sys;
    sp.warmupInstrs = instrs / 5;
    const std::vector<InstrTrace> traces =
        makeTraces(profile, num_cpus, instrs);
    const RunOutcome base = runMode(sp, traces, false);
    ASSERT_FALSE(base.res.hitCycleCap);
    const Cycle at = base.res.warmupEndCycle + base.res.cycles / 2;

    for (bool writer_skips : {false, true}) {
        SCOPED_TRACE(writer_skips ? "skip writer, plain reader"
                                  : "plain writer, skip reader");
        const std::string path = tempPath("skip_xmode.ckpt");
        {
            SystemParams cp = sp;
            cp.skipAhead = writer_skips;
            cp.checkpoint.atCycle = at;
            cp.checkpoint.path = path;
            cp.checkpoint.stopAfter = true;
            System writer(cp);
            attachAll(writer, traces);
            ASSERT_TRUE(writer.run().stoppedAtCheckpoint);
        }
        SystemParams rp = sp;
        rp.skipAhead = !writer_skips;
        System reader(rp);
        attachAll(reader, traces);
        ckpt::restoreSystemCheckpoint(reader, path);
        const SimResult res = reader.run();
        EXPECT_EQ(diffSim(base.res, res), "");
        EXPECT_EQ(base.json, obs::exportStatsJson(reader.root(), &res));
        std::remove(path.c_str());
    }
}

TEST(SkipAheadCheckpoint, CheckpointsInterchangeBetweenModes)
{
    // The scheduling mode is a host-side concern: it is excluded
    // from the configuration fingerprint, and the SoA scan masks are
    // derived state rebuilt on restore, so a checkpoint cut by a
    // skip-ahead run restores into a plain run (and vice versa) and
    // still finishes in the reference bits.
    expectCheckpointsInterchange(specint95Profile(), 1, 20000);
}

TEST(SkipAheadCheckpoint, Smp4CheckpointsInterchangeBetweenModes)
{
    // 4P TPC-C exercises the LSQ masks across all four cores' queues.
    expectCheckpointsInterchange(tpccProfile(), 4, 6000);
}

// --- Parallel sweeps over the fast engine (TSan workload) ---------

TEST(SweepRunnerSkipAhead, ParallelSweepMatchesSerial)
{
    // Each sweep point runs the fast engine (the shipping default);
    // 1-worker and 3-worker sweeps must agree bit for bit. This is
    // also the TSan workload for the memoized kernel paths (see the
    // "tsan" test preset).
    constexpr std::size_t kRun = 8000;
    auto build = [&]() {
        exp::Sweep sweep;
        sweep.add("tpcc/up", sparc64vBase(), tpccProfile(), kRun);
        sweep.add("int/up", sparc64vBase(), specint2000Profile(),
                  kRun);
        sweep.add("tpcc/4p", sparc64vBase(4), tpccProfile(), kRun);
        return sweep;
    };

    exp::SweepOptions serial_opts;
    serial_opts.threads = 1;
    const std::vector<exp::PointResult> serial =
        exp::SweepRunner(serial_opts).run(build());

    exp::SweepOptions parallel_opts;
    parallel_opts.threads = 3;
    const std::vector<exp::PointResult> parallel =
        exp::SweepRunner(parallel_opts).run(build());

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(serial[i].label);
        ASSERT_TRUE(serial[i].ok) << serial[i].error;
        ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
        EXPECT_EQ(diffSim(serial[i].sim, parallel[i].sim), "");
    }
}

} // namespace
} // namespace s64v
