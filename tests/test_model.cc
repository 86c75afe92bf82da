#include "model/perf_model.hh"

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "workload/workloads.hh"

namespace s64v
{
namespace
{

constexpr std::size_t kRun = 20000;

TEST(Model, BasePresetMatchesTable1)
{
    const MachineParams m = sparc64vBase();
    EXPECT_EQ(m.sys.core.issueWidth, 4u);
    EXPECT_EQ(m.sys.core.windowEntries, 64u);
    EXPECT_EQ(m.sys.core.intRenameRegs, 32u);
    EXPECT_EQ(m.sys.core.fpRenameRegs, 32u);
    EXPECT_EQ(m.sys.core.loadQueueEntries, 16u);
    EXPECT_EQ(m.sys.core.storeQueueEntries, 10u);
    EXPECT_EQ(m.sys.core.rsaEntries, 10u);
    EXPECT_EQ(m.sys.core.rsbrEntries, 10u);
    EXPECT_EQ(m.sys.core.rseEntries, 8u);
    EXPECT_EQ(m.sys.core.bpred.entries, 16384u);
    EXPECT_EQ(m.sys.core.bpred.assoc, 4u);
    EXPECT_EQ(m.sys.mem.l1i.sizeBytes, 128u << 10);
    EXPECT_EQ(m.sys.mem.l1i.assoc, 2u);
    EXPECT_EQ(m.sys.mem.l1d.sizeBytes, 128u << 10);
    EXPECT_EQ(m.sys.mem.l2.sizeBytes, 2u << 20);
    EXPECT_EQ(m.sys.mem.l2.assoc, 4u);
    EXPECT_EQ(m.sys.numCpus, 1u);
}

TEST(Model, VariantsChangeTheRightKnobs)
{
    const MachineParams base = sparc64vBase();
    EXPECT_EQ(withIssueWidth(base, 2).sys.core.issueWidth, 2u);
    EXPECT_EQ(withSmallBht(base).sys.core.bpred.entries, 4096u);
    EXPECT_EQ(withSmallBht(base).sys.core.bpred.takenBubbles, 1u);
    EXPECT_EQ(withSmallL1(base).sys.mem.l1d.sizeBytes, 32u << 10);
    EXPECT_EQ(withSmallL1(base).sys.mem.l1d.assoc, 1u);
    EXPECT_EQ(withOffChipL2(base, 2).sys.mem.l2.sizeBytes, 8u << 20);
    EXPECT_TRUE(withOffChipL2(base, 1).sys.mem.l2.offChip);
    EXPECT_FALSE(withPrefetch(base, false).sys.mem.prefetch.enabled);
    EXPECT_TRUE(withUnifiedRs(base, true).sys.core.unifiedRs);
    EXPECT_TRUE(withPerfectL2(base).sys.mem.perfectL2);
    EXPECT_TRUE(withPerfectBranch(base).sys.core.bpred.perfect);
}

TEST(Model, InvalidVariantsRejected)
{
    setThrowOnError(true);
    EXPECT_THROW(withIssueWidth(sparc64vBase(), 0),
                 std::runtime_error);
    EXPECT_THROW(withOffChipL2(sparc64vBase(), 4),
                 std::runtime_error);
    setThrowOnError(false);
}

TEST(Model, SimulateOneShot)
{
    const SimResult res = PerfModel::simulate(
        sparc64vBase(), specint95Profile(), kRun);
    EXPECT_EQ(res.instructions, kRun);
    EXPECT_GT(res.ipc, 0.2);
}

TEST(Model, RerunIsReproducible)
{
    PerfModel m(sparc64vBase());
    m.loadWorkload(specint2000Profile(), kRun);
    const SimResult a = m.run();
    const SimResult b = m.run();
    EXPECT_EQ(diffSim(a, b), "");
}

TEST(Model, SystemAccessibleAfterRun)
{
    PerfModel m(sparc64vBase());
    m.loadWorkload(tpccProfile(), kRun);
    m.run();
    EXPECT_GT(m.system().mem().l1d(0).accesses(), 0u);
}

TEST(Model, SystemBeforeRunPanics)
{
    setThrowOnError(true);
    PerfModel m(sparc64vBase());
    EXPECT_THROW(m.system(), std::runtime_error);
    setThrowOnError(false);
}

TEST(Model, PerfectComponentsNeverSlower)
{
    for (const char *wl : {"SPECint95", "TPC-C"}) {
        const WorkloadProfile p = workloadByName(wl);
        const Cycle real =
            PerfModel::simulate(sparc64vBase(), p, kRun).cycles;
        const Cycle pl2 = PerfModel::simulate(
            withPerfectL2(sparc64vBase()), p, kRun).cycles;
        const Cycle pbr = PerfModel::simulate(
            withPerfectBranch(sparc64vBase()), p, kRun).cycles;
        EXPECT_LE(pl2, real) << wl;
        EXPECT_LE(pbr, real) << wl;
    }
}

} // namespace
} // namespace s64v
