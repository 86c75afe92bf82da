/**
 * @file
 * Warm-up window semantics: statistics reset after the warm-up
 * commits, on exactly the cycle the last core crosses the threshold
 * on both engines, measured-window accounting, and the interaction
 * with trace sampling (the paper's steady-state measurement
 * discipline).
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "golden/reverse_tracer.hh"
#include "hand_trace.hh"
#include "model/params.hh"
#include "run_util.hh"
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

/**
 * At each cycle the kernel visits, before its ticks, records the
 * fewest instructions any core has committed: on the plain loop,
 * which visits every cycle, entry c is that count after cycle c - 1.
 */
class FewestCommitted final : public TickProfiler
{
  public:
    explicit FewestCommitted(System &sys) : sys_(sys) {}

    bool sampleCycle(Cycle) override
    {
        log.push_back(now());
        return false;
    }
    void recordTick(const Clocked &, std::uint64_t) override {}
    void recordProbes(std::uint64_t) override {}
    void recordElided(std::uint64_t) override {}

    /** The fewest committed by any core so far. */
    std::uint64_t now() const
    {
        std::uint64_t fewest = ~std::uint64_t{0};
        for (CpuId cpu = 0; cpu < sys_.params().numCpus; ++cpu)
            fewest = std::min(fewest, sys_.core(cpu).rawCommitted());
        return fewest;
    }

    std::vector<std::uint64_t> log;

  private:
    System &sys_;
};

TEST(Warmup, ResetFiresOnTheCycleTheLastCoreCrosses)
{
    // The reset checks commits only at the cycles its commit-width
    // bound names. Thresholds just below, at and above multiples of
    // the width, on one and four CPUs, and on one CPU a threshold
    // whose last commit waits out a memory miss, must each open the
    // window on the cycle the plain loop's own commit record dates,
    // with the plain loop's stats on the fast engine.
    for (const unsigned cpus : {1u, 4u}) {
        SCOPED_TRACE(std::to_string(cpus) + "P");
        SystemParams sp = sparc64vBase(cpus).sys;
        const std::size_t instrs = cpus == 1 ? 20000 : 5000;
        std::vector<InstrTrace> traces;
        for (CpuId cpu = 0; cpu < cpus; ++cpu)
            traces.push_back(testutil::handTrace(20031, instrs, cpu));

        std::vector<std::uint64_t> fewest;
        {
            SystemParams plain = sp;
            plain.skipAhead = false;
            System sys(plain);
            testutil::attachAll(sys, traces);
            FewestCommitted record(sys);
            sys.attachProfiler(&record);
            sys.run();
            fewest = std::move(record.log);
            fewest.push_back(record.now());
        }
        std::vector<std::uint64_t> thresholds;
        const unsigned width = sp.core.commitWidth;
        for (const std::size_t m : {instrs / 20, instrs / 5, instrs / 3}) {
            for (const std::uint64_t at : {m / width * width - 1,
                                           m / width * width,
                                           m / width * width + 1})
                thresholds.push_back(at);
        }
        if (cpus == 1) {
            // The count after the first commit drought of 100 cycles
            // or more past the first thousand commits: an L2 miss.
            std::size_t from = 0;
            for (std::size_t c = 1; c < fewest.size(); ++c) {
                if (fewest[c] != fewest[c - 1])
                    from = c;
                else if (fewest[c] > 1000 && c - from >= 100)
                    break;
            }
            ASSERT_LT(from + 100, fewest.size()) << "no long miss";
            thresholds.push_back(fewest[from] + 1);
        }

        for (const std::uint64_t threshold : thresholds) {
            SCOPED_TRACE("threshold " + std::to_string(threshold));
            const Cycle crossing = static_cast<Cycle>(
                std::lower_bound(fewest.begin(), fewest.end(),
                                 threshold) -
                fewest.begin() - 1);
            sp.warmupInstrs = threshold;
            sp.skipAhead = false;
            const testutil::RunOutcome plain =
                testutil::runFull(sp, traces);
            sp.skipAhead = true;
            const testutil::RunOutcome fast =
                testutil::runFull(sp, traces);
            EXPECT_EQ(plain.res.warmupEndCycle, crossing);
            EXPECT_EQ(fast.res.warmupEndCycle, crossing);
            EXPECT_EQ(diffSim(plain.res, fast.res), "");
            EXPECT_EQ(fast.json, plain.json);
        }
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
