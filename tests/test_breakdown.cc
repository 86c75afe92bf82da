#include "model/breakdown.hh"

#include <gtest/gtest.h>

#include "common/random.hh"
#include "workload/workloads.hh"

namespace s64v
{
namespace
{

constexpr std::size_t kRun = 120000;

TEST(Breakdown, FractionsSumToOne)
{
    const Breakdown b = computeBreakdown(sparc64vBase(),
                                         specint95Profile(), kRun, {});
    EXPECT_NEAR(b.core + b.branch + b.ibsTlb + b.sx, 1.0, 1e-9);
    EXPECT_GE(b.core, 0.0);
    EXPECT_GE(b.branch, 0.0);
    EXPECT_GE(b.ibsTlb, 0.0);
    EXPECT_GE(b.sx, 0.0);
}

TEST(Breakdown, IntIsBranchBound)
{
    const Breakdown b = computeBreakdown(sparc64vBase(),
                                         specint95Profile(), kRun, {});
    // SPECint95 spends far more on branch stalls than on L2 misses
    // (paper: 30 % vs small sx).
    EXPECT_GT(b.branch, b.sx);
    EXPECT_GT(b.branch, 0.1);
}

TEST(Breakdown, FpIsCoreBound)
{
    const Breakdown b = computeBreakdown(sparc64vBase(),
                                         specfp95Profile(), kRun, {});
    // Paper: SPECfp95 spends ~74 % in the core.
    EXPECT_GT(b.core, 0.5);
    EXPECT_LT(b.branch, 0.1);
}

TEST(Breakdown, TpccIsL2Bound)
{
    const Breakdown b = computeBreakdown(sparc64vBase(),
                                         tpccProfile(), kRun, {});
    // Paper: TPC-C loses ~35 % to L2 misses; it must dominate branch
    // and ibs/tlb individually.
    EXPECT_GT(b.sx, 0.15);
    EXPECT_GT(b.sx, b.branch);
}

TEST(Breakdown, FollowsTheRunSeed)
{
    // The breakdown's sweep applies the run's --seed= exactly as a
    // single run does: re-keying the profile by hand gives the same
    // numbers, and they differ from the unseeded breakdown.
    constexpr std::size_t kShort = 40000;
    const WorkloadProfile profile = specint95Profile();
    obs::ObsOptions seeded;
    seeded.seed = 5;
    const Breakdown a =
        computeBreakdown(sparc64vBase(), profile, kShort, seeded);

    WorkloadProfile rekeyed = profile;
    rekeyed.seed = mixSeeds(5, profile.seed);
    const Breakdown b =
        computeBreakdown(sparc64vBase(), rekeyed, kShort, {});
    EXPECT_EQ(a.core, b.core);
    EXPECT_EQ(a.branch, b.branch);
    EXPECT_EQ(a.ibsTlb, b.ibsTlb);
    EXPECT_EQ(a.sx, b.sx);

    const Breakdown c =
        computeBreakdown(sparc64vBase(), profile, kShort, {});
    EXPECT_NE(a.toString(), c.toString());
}

TEST(Breakdown, ToStringRendersPercents)
{
    Breakdown b;
    b.core = 0.5;
    b.branch = 0.2;
    b.ibsTlb = 0.1;
    b.sx = 0.2;
    const std::string s = b.toString();
    EXPECT_NE(s.find("core"), std::string::npos);
    EXPECT_NE(s.find("50.0%"), std::string::npos);
}

} // namespace
} // namespace s64v
