/**
 * @file
 * Run helpers for the tests that run whole machines: synthetic traces
 * attached to every CPU, a run to the end, a run cut at a checkpoint
 * and finished from it, and a profiler that records every cycle the
 * cycle kernel visits.
 */

#ifndef S64V_TESTS_RUN_UTIL_HH
#define S64V_TESTS_RUN_UTIL_HH

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.hh"
#include "obs/stats_export.hh"
#include "sim/clocked.hh"
#include "sim/system.hh"
#include "workload/generator.hh"

namespace s64v::testutil
{

/** @p name inside the test framework's temporary directory. */
inline std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

/** @p instrs generated records of @p profile for each of @p num_cpus. */
inline std::vector<InstrTrace>
makeTraces(const WorkloadProfile &profile, unsigned num_cpus,
           std::size_t instrs)
{
    TraceGenerator gen(profile, num_cpus);
    std::vector<InstrTrace> traces;
    for (unsigned cpu = 0; cpu < num_cpus; ++cpu)
        traces.push_back(gen.generate(instrs, cpu));
    return traces;
}

/** Attach traces[i] to CPU i. */
inline void
attachAll(System &sys, const std::vector<InstrTrace> &traces)
{
    for (CpuId cpu = 0; cpu < traces.size(); ++cpu)
        sys.attachTrace(cpu, traces[cpu]);
}

/** What one finished run leaves behind. */
struct RunOutcome
{
    SimResult res;
    std::string stats; ///< the stats JSON document.
    std::string json;  ///< the same, with the run block first.
};

/** @return @p res with @p sys's stats JSON, with and without it. */
inline RunOutcome
outcomeOf(System &sys, const SimResult &res)
{
    return {res, obs::exportStatsJson(sys.root()),
            obs::exportStatsJson(sys.root(), &res)};
}

/** Run @p traces on a fresh machine of @p sp to the end. */
inline RunOutcome
runFull(const SystemParams &sp, const std::vector<InstrTrace> &traces)
{
    System sys(sp);
    attachAll(sys, traces);
    const SimResult res = sys.run();
    return outcomeOf(sys, res);
}

/**
 * Run with a stop-at-checkpoint at @p at, then restore a fresh System
 * from the file at @p path and run it to completion: the interrupted
 * path whose outcome must be indistinguishable from runFull()'s. If
 * @p legs_elided is given, it receives the cycles the two legs
 * elided together.
 */
inline RunOutcome
runThroughCheckpoint(const SystemParams &sp,
                     const std::vector<InstrTrace> &traces, Cycle at,
                     const std::string &path,
                     std::uint64_t *legs_elided = nullptr)
{
    std::uint64_t elided = 0;
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
        elided += first.elidedCycles;
    }
    System sys(sp);
    attachAll(sys, traces);
    ckpt::restoreSystemCheckpoint(sys, path);
    const SimResult res = sys.run();
    if (legs_elided)
        *legs_elided = elided + res.elidedCycles;
    return outcomeOf(sys, res);
}

/**
 * Records every cycle the kernel visits (it calls sampleCycle() once
 * per visit) and times each one, counting the kernel's other calls.
 */
class VisitRecorder final : public TickProfiler
{
  public:
    bool sampleCycle(Cycle cycle) override
    {
        visits.push_back(cycle);
        return true;
    }
    void recordTick(const Clocked &, std::uint64_t) override { ++ticks; }
    void recordProbes(std::uint64_t) override { ++probePasses; }
    void recordElided(std::uint64_t cycles) override { elided += cycles; }

    std::vector<Cycle> visits;
    std::uint64_t ticks = 0;
    std::uint64_t probePasses = 0;
    std::uint64_t elided = 0;
};

} // namespace s64v::testutil

#endif // S64V_TESTS_RUN_UTIL_HH
