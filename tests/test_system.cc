#include "sim/system.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "common/logging.hh"
#include "golden/checker.hh"
#include "obs/heartbeat.hh"
#include "obs/sampler.hh"
#include "obs/stats_export.hh"
#include "workload/generator.hh"
#include "workload/workloads.hh"

#include "json_checker.hh"

namespace s64v
{
namespace
{

/** The whole number after "@p key": in @p record; -1 when absent. */
long long
fieldOf(const std::string &record, const std::string &key)
{
    const std::string tag = "\"" + key + "\":";
    const std::size_t at = record.find(tag);
    return at == std::string::npos
        ? -1
        : std::stoll(record.substr(at + tag.size()));
}

TEST(System, RunsAWorkloadToCompletion)
{
    SystemParams sp;
    System sys(sp);
    const InstrTrace trace = generateTrace(specint95Profile(), 20000);
    sys.attachTrace(0, trace);
    const SimResult res = sys.run();

    EXPECT_FALSE(res.hitCycleCap);
    EXPECT_EQ(res.instructions, 20000u);
    EXPECT_GT(res.ipc, 0.1);
    EXPECT_LT(res.ipc, 4.0);
    EXPECT_EQ(checkReplay(trace, res), "");
}

TEST(System, DeterministicAcrossRuns)
{
    const InstrTrace trace = generateTrace(tpccProfile(), 15000);
    SimResult a, b;
    {
        System sys{SystemParams{}};
        sys.attachTrace(0, trace);
        a = sys.run();
    }
    {
        System sys{SystemParams{}};
        sys.attachTrace(0, trace);
        b = sys.run();
    }
    EXPECT_EQ(diffSim(a, b), "");
}

TEST(System, DiffSimComparesWhatWasSimulated)
{
    SimResult a;
    a.cycles = 100;
    a.ipc = 0.5;
    a.cores.resize(2);
    SimResult b = a;
    EXPECT_EQ(diffSim(a, b), "");

    // How a run was driven is not part of what it simulated.
    b.elidedCycles = 40;
    b.interrupted = true;
    b.stoppedAtCheckpoint = true;
    EXPECT_EQ(diffSim(a, b), "");

    b.hitCycleCap = true;
    EXPECT_EQ(diffSim(a, b), "hit cycle cap 0 != 1");
    b = a;
    b.cores[1].lastCommitCycle = 7;
    EXPECT_EQ(diffSim(a, b).rfind("core 1:", 0), 0u) << diffSim(a, b);
    b = a;
    b.ipc = 0.25;
    EXPECT_EQ(diffSim(a, b), "ipc 0.5 != 0.25");
}

TEST(System, MissingTraceIsFatal)
{
    setThrowOnError(true);
    System sys{SystemParams{}};
    EXPECT_THROW(sys.run(), std::runtime_error);
    setThrowOnError(false);
}

TEST(System, CycleLimitDetectsRunaway)
{
    SystemParams sp;
    sp.maxCycles = 50; // absurdly small.
    System sys(sp);
    sys.attachTrace(0, generateTrace(specint95Profile(), 5000));
    const SimResult res = sys.run();
    EXPECT_TRUE(res.hitCycleCap);
}

TEST(System, StatsDumpContainsComponents)
{
    System sys{SystemParams{}};
    sys.attachTrace(0, generateTrace(specint95Profile(), 5000));
    sys.run();
    const std::string json = obs::exportStatsJson(sys.root());
    EXPECT_TRUE(testutil::hasStat(json, "sim.cpu0", "committed"));
    EXPECT_TRUE(testutil::hasStat(json, "sim.mem0.l1d", "accesses"));
    EXPECT_TRUE(testutil::hasStat(json, "sim.memctrl", "reads"));
}

TEST(System, ObserversCountWhatTheRunCommitted)
{
    // The warm-up reset zeroes the per-core stats mid-run. The
    // heartbeat and the sampler count every commit of the run, so
    // their totals never step back across the boundary, and no
    // interval that committed reads zero instructions.
    constexpr std::size_t kInstrs = 20000;
    SystemParams sp;
    sp.warmupInstrs = standardWarmup(kInstrs);
    System sys(sp);
    sys.attachTrace(0, generateTrace(specint95Profile(), kInstrs));
    obs::IntervalSampler sampler(sys.root(), 1000);
    std::ostringstream samples;
    sampler.setOutput(&samples);
    sys.attachSampler(&sampler);
    obs::Heartbeat heartbeat(1000);
    sys.attachHeartbeat(&heartbeat);

    std::string sink;
    setLogSink(&sink);
    const SimResult res = sys.run();
    setLogSink(nullptr);
    ASSERT_GT(res.warmupEndCycle, 2000u) << "no beat before warm-up";

    std::istringstream beats(sink);
    std::string line;
    unsigned long long lastBeat = 0;
    std::size_t beatLines = 0;
    while (std::getline(beats, line)) {
        unsigned long long cycle = 0, instrs = 0;
        if (std::sscanf(line.c_str(),
                        "info: heartbeat: cycle %llu, %llu instrs",
                        &cycle, &instrs) != 2)
            continue;
        ++beatLines;
        EXPECT_GE(instrs, lastBeat) << line;
        lastBeat = instrs;
    }
    EXPECT_EQ(beatLines, heartbeat.beats());

    std::istringstream records(samples.str());
    long long lastInstrs = 0;
    std::size_t n = 0;
    while (std::getline(records, line)) {
        const long long instrs = fieldOf(line, "instructions");
        EXPECT_GE(instrs, lastInstrs) << line;
        lastInstrs = instrs;
        if (n++ > 0 && fieldOf(line, "sim.cpu0.committed") > 0) {
            EXPECT_GT(fieldOf(line, "interval_instructions"), 0)
                << line;
        }
    }
    EXPECT_GT(n, 2u);
    EXPECT_EQ(lastInstrs, static_cast<long long>(kInstrs));
}

TEST(System, PerCoreResultsConsistent)
{
    System sys{SystemParams{}};
    sys.attachTrace(0, generateTrace(specfp95Profile(), 10000));
    const SimResult res = sys.run();
    ASSERT_EQ(res.cores.size(), 1u);
    EXPECT_EQ(res.cores[0].committed, res.instructions);
    EXPECT_EQ(res.cores[0].lastCommitCycle, res.cycles);
}

} // namespace
} // namespace s64v
