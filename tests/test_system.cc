#include "sim/system.hh"

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "golden/checker.hh"
#include "workload/generator.hh"
#include "workload/workloads.hh"

namespace s64v
{
namespace
{

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
    const std::string dump = sys.statsDump();
    EXPECT_NE(dump.find("cpu0.committed"), std::string::npos);
    EXPECT_NE(dump.find("mem0.l1d.accesses"), std::string::npos);
    EXPECT_NE(dump.find("memctrl.reads"), std::string::npos);
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
