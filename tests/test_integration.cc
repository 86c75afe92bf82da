/**
 * @file
 * Cross-module integration scenarios: the workflows a downstream user
 * actually strings together — trace capture to file, replay through
 * the model, program-form verification, SMP pipelines.
 */

#include <cstdio>
#include <utility>

#include <gtest/gtest.h>

#include "cpu/pipeview.hh"
#include "golden/checker.hh"
#include "golden/reverse_tracer.hh"
#include "model/perf_model.hh"
#include "obs/stats_export.hh"
#include "trace/filters.hh"
#include "trace/trace_io.hh"
#include "workload/custom.hh"
#include "workload/generator.hh"
#include "workload/workloads.hh"

#include "json_checker.hh"

namespace s64v
{
namespace
{

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

// The paper's Figure 3 pipeline: capture a trace, persist it, sample
// it, replay the sample on the model, verify the replay.
TEST(Integration, CaptureSampleReplayVerify)
{
    const InstrTrace full = generateTrace(tpccProfile(), 60000);
    const std::string path = tempPath("pipeline.s64vtrc");
    writeTraceFile(path, full);

    const InstrTrace loaded = readTraceFile(path);
    ASSERT_EQ(loaded.size(), full.size());

    const InstrTrace sample = sampleTrace(loaded, 10000, 30000);
    EXPECT_EQ(validateTrace(sample), "");

    PerfModel model(sparc64vBase());
    model.loadTrace(0, sample);
    const SimResult res = model.run();
    EXPECT_EQ(checkReplay(sample, res), "");
    std::remove(path.c_str());
}

// A trace survives the full tool chain: file -> program form ->
// replay -> file again, bit-identical records.
TEST(Integration, TraceProgramFileRoundTrip)
{
    const InstrTrace t = generateTrace(specint95Profile(), 20000);
    const TestProgram prog = TestProgram::fromTrace(t);
    const InstrTrace replayed = prog.replay();

    const std::string path = tempPath("roundtrip2.s64vtrc");
    writeTraceFile(path, replayed);
    const InstrTrace loaded = readTraceFile(path);
    std::remove(path.c_str());

    ASSERT_EQ(loaded.size(), t.size());
    for (std::size_t i = 0; i < t.size(); i += 997) {
        EXPECT_EQ(loaded[i].pc, t[i].pc);
        EXPECT_EQ(loaded[i].ea, t[i].ea);
    }
}

// Pipeview on an SMP system: each core records independently.
TEST(Integration, SmpPipeviewPerCore)
{
    SystemParams sp;
    sp.numCpus = 2;
    System sys(sp);
    PipeviewRecorder pv0(32), pv1(32);
    sys.core(0).attachPipeview(&pv0);
    sys.core(1).attachPipeview(&pv1);

    TraceGenerator gen(tpccProfile(), 2);
    sys.attachTrace(0, gen.generate(4000, 0));
    sys.attachTrace(1, gen.generate(4000, 1));
    sys.run();

    EXPECT_EQ(pv0.recorded(), 4000u);
    EXPECT_EQ(pv1.recorded(), 4000u);
    // Different traces, different timelines.
    EXPECT_NE(pv0.render(), pv1.render());
}

// A custom workload goes through the whole stack: profile from
// key=value knobs, trace, simulate, golden cross-check.
TEST(Integration, CustomWorkloadFullStack)
{
    ConfigMap cfg;
    cfg.parse("wl.name=webapp");
    cfg.parse("wl.load=0.22");
    cfg.parse("wl.kernel=0.15");
    cfg.parse("wl.pool_mb=4");
    cfg.parse("wl.pool_w=0.10");
    const WorkloadProfile p = customProfile(cfg);

    const InstrTrace t = generateTrace(p, 30000);
    EXPECT_EQ(verifyReverseTrace(t), "");

    PerfModel model(sparc64vBase());
    model.loadTrace(0, t);
    const SimResult res = model.run();
    EXPECT_EQ(checkReplay(t, res), "");
    EXPECT_EQ(checkAgainstGolden(t, res, 1.8), "");
}

// The stats JSON names every major component after an SMP run, and
// resetting clears the counters.
TEST(Integration, StatsDumpAndReset)
{
    SystemParams sp;
    sp.numCpus = 2;
    System sys(sp);
    TraceGenerator gen(tpccProfile(), 2);
    sys.attachTrace(0, gen.generate(3000, 0));
    sys.attachTrace(1, gen.generate(3000, 1));
    sys.run();

    const std::string json = obs::exportStatsJson(sys.root());
    const std::pair<const char *, const char *> stats[] = {
        {"sim.cpu0", "committed"},      {"sim.cpu1", "committed"},
        {"sim.mem0.l1d", "accesses"},   {"sim.mem1.l2", "accesses"},
        {"sim.coherence", "snoops"},    {"sim.bus", "transactions"},
        {"sim.memctrl", "reads"},       {"sim.cpu0.lsq", "load_issues"},
        {"sim.cpu0.bpred", "lookups"}};
    for (const auto &[group, name] : stats) {
        EXPECT_TRUE(testutil::hasStat(json, group, name))
            << group << "." << name;
    }

    sys.root().resetAll();
    EXPECT_EQ(sys.core(0).committed(), 0u);
    EXPECT_EQ(sys.mem().l1d(0).accesses(), 0u);
}

// Determinism across the whole stack: identical stats JSON for
// identical seeds.
TEST(Integration, WholeStackDeterminism)
{
    auto run_once = []() {
        System sys{SystemParams{}};
        sys.attachTrace(0, generateTrace(specfp95Profile(), 8000));
        sys.run();
        return obs::exportStatsJson(sys.root());
    };
    EXPECT_EQ(run_once(), run_once());
}

} // namespace
} // namespace s64v
