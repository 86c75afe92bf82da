/**
 * @file
 * Parameterized property suites: invariants that must hold across the
 * whole workload set and across parameter sweeps.
 */

#include <cctype>

#include <gtest/gtest.h>

#include "golden/checker.hh"
#include "model/perf_model.hh"
#include "workload/generator.hh"
#include "workload/workloads.hh"

namespace s64v
{
namespace
{

constexpr std::size_t kRun = 15000;

class PerWorkload : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PerWorkload, ReplayCompletesAndIsPlausible)
{
    const InstrTrace t = generateTrace(workloadByName(GetParam()),
                                       kRun);
    PerfModel m(sparc64vBase());
    m.loadTrace(0, t);
    const SimResult res = m.run();
    EXPECT_EQ(checkReplay(t, res), "");
}

TEST_P(PerWorkload, PerfectHierarchyIsUpperBound)
{
    const WorkloadProfile p = workloadByName(GetParam());
    MachineParams ideal = withPerfectBranch(withPerfectTlb(
        withPerfectL1(withPerfectL2(sparc64vBase()))));
    const double ideal_ipc =
        PerfModel::simulate(ideal, p, kRun).ipc;
    const double real_ipc =
        PerfModel::simulate(sparc64vBase(), p, kRun).ipc;
    EXPECT_GE(ideal_ipc * 1.0001, real_ipc);
    // And the idealized machine can't beat the issue width.
    EXPECT_LE(ideal_ipc, 4.0);
}

TEST_P(PerWorkload, WiderIssueNeverHurts)
{
    const WorkloadProfile p = workloadByName(GetParam());
    const double w2 = PerfModel::simulate(
        withIssueWidth(sparc64vBase(), 2), p, kRun).ipc;
    const double w4 =
        PerfModel::simulate(sparc64vBase(), p, kRun).ipc;
    EXPECT_GE(w4 * 1.02, w2); // 2 % tolerance for noise.
}

TEST_P(PerWorkload, BiggerL1NeverMuchWorse)
{
    const WorkloadProfile p = workloadByName(GetParam());
    const double small = PerfModel::simulate(
        withSmallL1(sparc64vBase()), p, kRun).ipc;
    const double big =
        PerfModel::simulate(sparc64vBase(), p, kRun).ipc;
    // The large L1 costs one extra cycle of latency, so tiny losses
    // are legitimate; large losses are not.
    EXPECT_GE(big * 1.10, small);
}

TEST_P(PerWorkload, L1MissRatioHigherWithSmallCache)
{
    const WorkloadProfile p = workloadByName(GetParam());

    PerfModel small(withSmallL1(sparc64vBase()));
    small.loadWorkload(p, kRun);
    small.run();
    PerfModel big(sparc64vBase());
    big.loadWorkload(p, kRun);
    big.run();

    const double small_miss =
        small.system().mem().l1d(0).demandMissRatio();
    const double big_miss =
        big.system().mem().l1d(0).demandMissRatio();
    EXPECT_GE(small_miss * 1.0001 + 1e-6, big_miss);
}

TEST_P(PerWorkload, DeterministicSimulation)
{
    const WorkloadProfile p = workloadByName(GetParam());
    const SimResult a = PerfModel::simulate(sparc64vBase(), p, 8000);
    const SimResult b = PerfModel::simulate(sparc64vBase(), p, 8000);
    EXPECT_EQ(diffSim(a, b), "");
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, PerWorkload,
    ::testing::Values("SPECint95", "SPECfp95", "SPECint2000",
                      "SPECfp2000", "TPC-C"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string n = info.param;
        for (char &c : n) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return n;
    });

class CacheSizeSweep
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CacheSizeSweep, L2MissRatioMonotoneInSize)
{
    // Fix the workload; compare this L2 size against double the size.
    const WorkloadProfile p = tpccProfile();
    auto miss_at = [&](std::uint64_t bytes) {
        MachineParams m = sparc64vBase();
        m.sys.mem.l2.sizeBytes = bytes;
        PerfModel pm(m);
        pm.loadWorkload(p, kRun);
        pm.run();
        return pm.system().mem().l2DemandMissRatio();
    };
    const double small = miss_at(GetParam());
    const double big = miss_at(GetParam() * 2);
    EXPECT_GE(small * 1.02 + 1e-6, big);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CacheSizeSweep,
                         ::testing::Values(512ull << 10, 1ull << 20,
                                           2ull << 20, 4ull << 20));

class BhtSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(BhtSweep, BiggerTablesPredictNoWorse)
{
    const WorkloadProfile p = tpccProfile();
    auto miss_at = [&](unsigned entries) {
        MachineParams m = sparc64vBase();
        m.sys.core.bpred.entries = entries;
        PerfModel pm(m);
        pm.loadWorkload(p, kRun);
        pm.run();
        return pm.system().core(0).bpred().mispredictRatio();
    };
    const double small = miss_at(GetParam());
    const double big = miss_at(GetParam() * 4);
    EXPECT_GE(small * 1.05 + 1e-4, big);
}

INSTANTIATE_TEST_SUITE_P(Entries, BhtSweep,
                         ::testing::Values(1024u, 4096u, 16384u));

} // namespace
} // namespace s64v
