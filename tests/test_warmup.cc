/**
 * @file
 * Warm-up window semantics: statistics reset after the warm-up
 * commits, measured-window accounting, and the interaction with
 * trace sampling (the paper's steady-state measurement discipline).
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "golden/reverse_tracer.hh"
#include "sim/system.hh"
#include "trace/filters.hh"
#include "workload/generator.hh"
#include "workload/workloads.hh"

namespace s64v
{
namespace
{

TEST(Warmup, MeasuredWindowExcludesWarmup)
{
    SystemParams sp;
    sp.warmupInstrs = 5000;
    System sys(sp);
    sys.attachTrace(0, generateTrace(specint95Profile(), 20000));
    const SimResult res = sys.run();

    EXPECT_EQ(res.instructions, 20000u);
    EXPECT_LE(res.measured, 15000u + 64); // warm-up slop < window.
    EXPECT_GE(res.measured, 14000u);
    EXPECT_GT(res.warmupEndCycle, 0u);
    EXPECT_GT(res.cycles, 0u);
    // IPC computed over the window only.
    EXPECT_NEAR(res.ipc,
                static_cast<double>(res.measured) / res.cycles,
                1e-9);
}

TEST(Warmup, ZeroWarmupMeasuresEverything)
{
    SystemParams sp;
    sp.warmupInstrs = 0;
    System sys(sp);
    sys.attachTrace(0, generateTrace(specint95Profile(), 8000));
    const SimResult res = sys.run();
    EXPECT_EQ(res.measured, 8000u);
    EXPECT_EQ(res.warmupEndCycle, 0u);
}

TEST(Warmup, WarmCachesRaiseMeasuredIpc)
{
    auto ipc_with_warmup = [](std::uint64_t warm) {
        SystemParams sp;
        sp.warmupInstrs = warm;
        System sys(sp);
        sys.attachTrace(0, generateTrace(specint95Profile(), 60000));
        return sys.run().ipc;
    };
    // Measuring from cold start includes the compulsory-miss storm.
    EXPECT_GT(ipc_with_warmup(12000), ipc_with_warmup(0));
}

TEST(Warmup, UnreachableThresholdWarnsAndMeasuresAll)
{
    std::string log;
    setLogSink(&log);
    SystemParams sp;
    sp.warmupInstrs = 1000000; // longer than the trace.
    System sys(sp);
    sys.attachTrace(0, generateTrace(specint95Profile(), 5000));
    const SimResult res = sys.run();
    setLogSink(nullptr);

    EXPECT_EQ(res.instructions, 5000u);
    EXPECT_NE(log.find("warm-up"), std::string::npos);
}

TEST(Warmup, SmpWaitsForAllCores)
{
    SystemParams sp;
    sp.numCpus = 2;
    sp.warmupInstrs = 2000;
    System sys(sp);
    TraceGenerator gen(tpccProfile(), 2);
    sys.attachTrace(0, gen.generate(10000, 0));
    sys.attachTrace(1, gen.generate(10000, 1));
    const SimResult res = sys.run();
    for (const CoreResult &cr : res.cores) {
        EXPECT_EQ(cr.committed, 10000u);
        EXPECT_LE(cr.measured, 8000u + 64);
    }
}

// Sampled traces have PC discontinuities at window joins; both the
// model and the reverse tracer must digest them.
TEST(Warmup, SampledTraceReplaysAndReverses)
{
    // A 2,500-record window every 10,000 records, joined end to end.
    const InstrTrace full = generateTrace(tpccProfile(), 50000);
    InstrTrace sample(full.workloadName());
    for (std::size_t start = 0; start < full.size(); start += 10000) {
        const InstrTrace window = sampleTrace(full, start, 2500);
        for (const TraceRecord &r : window.records())
            sample.append(r);
    }
    ASSERT_GT(sample.size(), 10000u);
    EXPECT_EQ(verifyReverseTrace(sample), "");

    System sys{SystemParams{}};
    sys.attachTrace(0, sample);
    const SimResult res = sys.run();
    EXPECT_EQ(res.instructions, sample.size());
    EXPECT_FALSE(res.hitCycleCap);
}

} // namespace
} // namespace s64v
