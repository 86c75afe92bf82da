/**
 * @file
 * Checkpoint/restore at adversarial cycles. The bread-and-butter
 * mid-measurement cuts live in test_snapshot.cc; this file aims the
 * snapshot machinery at the corners: cycle 0 (nothing has happened
 * yet), the final commit cycle and the cycle before it (the machine is
 * mid-drain, ROBs emptying), a drained core next to a running one in
 * SMP, and a checkpoint cut *inside an armed fault-injection window* —
 * the checkpoint must neither absorb the pending fault nor be
 * corrupted by it.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/fault_inject.hh"
#include "ckpt/checkpoint.hh"
#include "common/logging.hh"
#include "model/params.hh"
#include "obs/stats_export.hh"
#include "sim/system.hh"
#include "workload/generator.hh"
#include "workload/workloads.hh"

namespace s64v
{
namespace
{

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

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
    std::string stats; ///< the stats JSON document.
};

RunOutcome
runFull(const SystemParams &sp, const std::vector<InstrTrace> &traces)
{
    System sys(sp);
    attachAll(sys, traces);
    RunOutcome out;
    out.res = sys.run();
    out.stats = obs::exportStatsJson(sys.root());
    return out;
}

RunOutcome
runThroughCheckpoint(const SystemParams &sp,
                     const std::vector<InstrTrace> &traces, Cycle at,
                     const std::string &path)
{
    {
        SystemParams cp = sp;
        cp.checkpoint.atCycle = at;
        cp.checkpoint.path = path;
        cp.checkpoint.stopAfter = true;
        System sys(cp);
        attachAll(sys, traces);
        const SimResult first = sys.run();
        EXPECT_TRUE(first.stoppedAtCheckpoint)
            << "checkpoint at cycle " << at << " never fired";
        EXPECT_FALSE(first.hitCycleCap);
    }
    System sys(sp);
    attachAll(sys, traces);
    ckpt::restoreSystemCheckpoint(sys, path);
    RunOutcome out;
    out.res = sys.run();
    out.stats = obs::exportStatsJson(sys.root());
    return out;
}

/** The cycle of the run's very last commit, over every core. */
Cycle
lastCommitCycle(const SimResult &res)
{
    Cycle last = 0;
    for (const CoreResult &c : res.cores)
        last = std::max(last, c.lastCommitCycle);
    return last;
}

TEST(CkptAdversarial, CycleZeroCheckpointRestoresBitIdentically)
{
    constexpr std::size_t kInstrs = 8000;
    SystemParams sp = sparc64vBase().sys;
    sp.warmupInstrs = kInstrs / 5;
    const std::vector<InstrTrace> traces =
        makeTraces(specint95Profile(), 1, kInstrs);
    const RunOutcome base = runFull(sp, traces);
    ASSERT_FALSE(base.res.hitCycleCap);

    // Nothing has committed, nothing is in flight, the warm-up window
    // hasn't closed: the snapshot is of a machine that has done one
    // cycle of work, and the restored run redoes everything else.
    const std::string path = tempPath("adv_cycle0.ckpt");
    const RunOutcome resumed =
        runThroughCheckpoint(sp, traces, 0, path);
    EXPECT_EQ(diffSim(base.res, resumed.res), "");
    EXPECT_EQ(base.stats, resumed.stats);
    std::remove(path.c_str());
}

TEST(CkptAdversarial, DrainWindowCheckpointsRestoreBitIdentically)
{
    constexpr std::size_t kInstrs = 8000;
    SystemParams sp = sparc64vBase().sys;
    sp.warmupInstrs = kInstrs / 5;
    const std::vector<InstrTrace> traces =
        makeTraces(specint2000Profile(), 1, kInstrs);
    const RunOutcome base = runFull(sp, traces);
    ASSERT_FALSE(base.res.hitCycleCap);
    const Cycle last = lastCommitCycle(base.res);
    ASSERT_GT(last, 1u);

    // One cut the cycle before the final commit (the last instruction
    // is still in the ROB) and one on the final commit cycle itself
    // (every instruction committed, the memory side still draining).
    // The restored runs replay almost nothing — the bookkeeping that
    // produces the result must come from the snapshot, not the rerun.
    for (const Cycle at : {last - 1, last}) {
        const std::string path = tempPath("adv_drain.ckpt");
        const RunOutcome resumed =
            runThroughCheckpoint(sp, traces, at, path);
        EXPECT_EQ(diffSim(base.res, resumed.res), "");
        EXPECT_EQ(base.stats, resumed.stats)
            << "stats diverged for a checkpoint at cycle " << at
            << " (last commit at " << last << ")";
        std::remove(path.c_str());
    }
}

TEST(CkptAdversarial, SmpDrainedCoreBesideARunningOneRestores)
{
    constexpr std::size_t kInstrsPerCpu = 5000;
    SystemParams sp = sparc64vBase(2).sys;
    sp.warmupInstrs = kInstrsPerCpu / 5;
    const std::vector<InstrTrace> traces =
        makeTraces(tpccProfile(), 2, kInstrsPerCpu);
    const RunOutcome base = runFull(sp, traces);
    ASSERT_FALSE(base.res.hitCycleCap);
    ASSERT_EQ(base.res.cores.size(), 2u);

    // Cut just after the *earlier* core finishes: one core is fully
    // drained and idle, the other is still committing and holding bus
    // traffic. The restore must bring back that asymmetry exactly.
    const Cycle first = std::min(base.res.cores[0].lastCommitCycle,
                                 base.res.cores[1].lastCommitCycle);
    const Cycle last = lastCommitCycle(base.res);
    ASSERT_LT(first, last) << "cores finished together; pick a "
                              "workload that skews them";
    const std::string path = tempPath("adv_smp_drain.ckpt");
    const RunOutcome resumed =
        runThroughCheckpoint(sp, traces, first + 1, path);
    EXPECT_EQ(diffSim(base.res, resumed.res), "");
    EXPECT_EQ(base.stats, resumed.stats);
    std::remove(path.c_str());
}

TEST(CkptAdversarial, CheckpointInsideAnArmedFaultWindow)
{
    constexpr std::size_t kInstrs = 8000;
    SystemParams sp = sparc64vBase().sys;
    sp.warmupInstrs = kInstrs / 5;
    sp.watchdogCycles = 2000;
    const std::vector<InstrTrace> traces =
        makeTraces(tpccProfile(), 1, kInstrs);
    const RunOutcome base = runFull(sp, traces);
    ASSERT_FALSE(base.res.hitCycleCap);
    const Cycle last = lastCommitCycle(base.res);

    // Arm a commit stall at F and checkpoint at C < F: the snapshot
    // is cut while the fault is pending but has not yet fired.
    const Cycle ckptAt = last / 3;
    const Cycle faultAt = 2 * last / 3;
    ASSERT_GT(faultAt, ckptAt + 1);
    check::activeFaultPlan().parse(
        "stall:" + std::to_string(faultAt));

    // Uninterrupted fault run: the stall starves the watchdog, which
    // must panic (thrown here) rather than hang.
    {
        ScopedThrowOnError guard;
        System doomed(sp);
        attachAll(doomed, traces);
        EXPECT_THROW(doomed.run(), std::runtime_error);
    }

    // Checkpoint run: stops at C before the fault window opens.
    const std::string path = tempPath("adv_fault_window.ckpt");
    {
        SystemParams cp = sp;
        cp.checkpoint.atCycle = ckptAt;
        cp.checkpoint.path = path;
        cp.checkpoint.stopAfter = true;
        System sys(cp);
        attachAll(sys, traces);
        ASSERT_TRUE(sys.run().stoppedAtCheckpoint);
    }

    // Restore with the plan still armed: the resumed run re-enters
    // the fault window and must die the same watchdog death — the
    // checkpoint didn't swallow the pending fault.
    {
        ScopedThrowOnError guard;
        System resumed(sp);
        attachAll(resumed, traces);
        ckpt::restoreSystemCheckpoint(resumed, path);
        EXPECT_THROW(resumed.run(), std::runtime_error);
    }

    // Disarm and restore again: the snapshot written inside the armed
    // window is itself untainted — the run completes bit-identically
    // to one that never saw a fault plan at all.
    check::activeFaultPlan().clear();
    {
        System clean(sp);
        attachAll(clean, traces);
        ckpt::restoreSystemCheckpoint(clean, path);
        RunOutcome out;
        out.res = clean.run();
        out.stats = obs::exportStatsJson(clean.root());
        EXPECT_EQ(diffSim(base.res, out.res), "");
        EXPECT_EQ(base.stats, out.stats);
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace s64v
