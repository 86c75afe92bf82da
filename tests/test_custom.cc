#include "workload/custom.hh"

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "model/perf_model.hh"
#include "trace/filters.hh"
#include "workload/generator.hh"

namespace s64v
{
namespace
{

TEST(Custom, DefaultsValidateAndRun)
{
    ConfigMap cfg;
    const WorkloadProfile p = customProfile(cfg);
    EXPECT_EQ(p.name, "custom");
    const SimResult res =
        PerfModel::simulate(sparc64vBase(), p, 20000);
    EXPECT_EQ(res.instructions, 20000u);
    EXPECT_GT(res.ipc, 0.1);
}

TEST(Custom, MixKnobsHonored)
{
    ConfigMap cfg;
    cfg.parse("wl.load=0.30");
    cfg.parse("wl.store=0.12");
    cfg.parse("wl.cond=0.10");
    const WorkloadProfile p = customProfile(cfg);
    const TraceSummary s =
        summarizeTrace(generateTrace(p, 80000));
    EXPECT_NEAR(s.loadFraction, 0.30, 0.05);
    EXPECT_NEAR(s.storeFraction, 0.12, 0.04);
}

TEST(Custom, FpShareSplitsAcrossUnits)
{
    ConfigMap cfg;
    cfg.parse("wl.fp=0.30");
    cfg.parse("wl.load=0.15");
    const WorkloadProfile p = customProfile(cfg);
    EXPECT_NEAR(p.mix.fpAdd + p.mix.fpMul + p.mix.fpMulAdd, 0.30,
                1e-9);
    const TraceSummary s =
        summarizeTrace(generateTrace(p, 40000));
    EXPECT_GT(s.fpFraction, 0.15);
}

TEST(Custom, RegionSizesRoundToPow2)
{
    ConfigMap cfg;
    cfg.parse("wl.heap_kb=100"); // not a power of two.
    const WorkloadProfile p = customProfile(cfg);
    for (const DataRegion &r : p.userRegions) {
        if (r.name == "heap") {
            EXPECT_EQ(r.size, 128u << 10);
        }
    }
}

TEST(Custom, OptionalRegionsOnlyWhenWeighted)
{
    ConfigMap cfg;
    const WorkloadProfile base = customProfile(cfg);
    for (const DataRegion &r : base.userRegions)
        EXPECT_NE(r.name, "pool");

    ConfigMap cfg2;
    cfg2.parse("wl.pool_mb=8");
    cfg2.parse("wl.pool_w=0.2");
    const WorkloadProfile with_pool = customProfile(cfg2);
    bool found = false;
    for (const DataRegion &r : with_pool.userRegions)
        found = found || r.name == "pool";
    EXPECT_TRUE(found);
}

TEST(Custom, KernelPhasesOptIn)
{
    ConfigMap cfg;
    cfg.parse("wl.kernel=0.25");
    const WorkloadProfile p = customProfile(cfg);
    EXPECT_FALSE(p.kernelRegions.empty());
    const TraceSummary s =
        summarizeTrace(generateTrace(p, 200000));
    EXPECT_NEAR(s.privilegedFraction, 0.25, 0.10);
}

TEST(Custom, OverCommittedMixRejected)
{
    setThrowOnError(true);
    ConfigMap cfg;
    cfg.parse("wl.load=0.6");
    cfg.parse("wl.fp=0.5");
    EXPECT_THROW(customProfile(cfg), std::runtime_error);
    setThrowOnError(false);
}

TEST(Custom, ZeroWeightEverywhereRejected)
{
    setThrowOnError(true);
    ConfigMap cfg;
    cfg.parse("wl.stack_w=0");
    cfg.parse("wl.heap_w=0");
    EXPECT_THROW(customProfile(cfg), std::runtime_error);
    setThrowOnError(false);
}

TEST(Custom, StreamRegionEnablesPrefetchGain)
{
    ConfigMap cfg;
    cfg.parse("wl.stream_mb=8");
    cfg.parse("wl.stream_w=0.5");
    cfg.parse("wl.heap_w=0.3");
    cfg.parse("wl.stack_w=0.2");
    const WorkloadProfile p = customProfile(cfg);
    const double with_pf =
        PerfModel::simulate(sparc64vBase(), p, 40000).ipc;
    const double without_pf = PerfModel::simulate(
        withPrefetch(sparc64vBase(), false), p, 40000).ipc;
    EXPECT_GT(with_pf, without_pf);
}

} // namespace
} // namespace s64v
