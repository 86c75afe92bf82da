#include "check/invariants.hh"

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "sim/system.hh"
#include "workload/generator.hh"
#include "workload/workloads.hh"

namespace s64v
{
namespace
{

using check::CheckLevel;
using check::InvariantAuditor;

TEST(CheckLevel, ParsesAllLevels)
{
    EXPECT_EQ(check::checkLevelFromString("off"), CheckLevel::Off);
    EXPECT_EQ(check::checkLevelFromString("end"), CheckLevel::EndOfRun);
    EXPECT_EQ(check::checkLevelFromString("cycle"),
              CheckLevel::PerCycle);
}

TEST(CheckLevel, RejectsUnknownLevels)
{
    setThrowOnError(true);
    EXPECT_THROW(check::checkLevelFromString("paranoid"),
                 std::runtime_error);
    setThrowOnError(false);
}

TEST(Invariants, CleanRunPassesEndOfRunAudit)
{
    System sys{SystemParams{}};
    sys.attachTrace(0, generateTrace(specint95Profile(), 8000));
    const SimResult res = sys.run(); // runs the audit itself too.
    EXPECT_FALSE(res.hitCycleCap);

    InvariantAuditor aud(sys);
    aud.checkEndOfRun(sys.currentCycle());
    EXPECT_GT(aud.checksRun(), 0u);
}

TEST(Invariants, PerCycleLevelSurvivesACleanRun)
{
    SystemParams sp;
    sp.checkLevel = CheckLevel::PerCycle;
    // Small caches keep the per-cycle coherence walk cheap.
    sp.mem.l1i.sizeBytes = 8 << 10;
    sp.mem.l1d.sizeBytes = 8 << 10;
    sp.mem.l2.sizeBytes = 64 << 10;
    sp.numCpus = 2;
    System sys(sp);
    TraceGenerator gen(tpccProfile(), 2);
    sys.attachTrace(0, gen.generate(3000, 0));
    sys.attachTrace(1, gen.generate(3000, 1));
    const SimResult res = sys.run();
    EXPECT_FALSE(res.hitCycleCap);
}

TEST(Invariants, DetectsDoubleDirtyOwner)
{
    SystemParams sp;
    sp.numCpus = 2;
    System sys(sp);
    const Addr line = 0x4000;
    sys.mem().l2(0).array().insert(line, /*dirty=*/true);
    sys.mem().l2(1).array().insert(line, /*dirty=*/true);

    InvariantAuditor aud(sys);
    setThrowOnError(true);
    EXPECT_THROW(aud.checkCycle(0), std::runtime_error);
    setThrowOnError(false);
}

TEST(Invariants, DetectsStaleSharerNextToDirtyOwner)
{
    SystemParams sp;
    sp.numCpus = 2;
    System sys(sp);
    const Addr line = 0x8000;
    sys.mem().l2(0).array().insert(line, /*dirty=*/true);
    sys.mem().l2(1).array().insert(line, /*dirty=*/false);

    InvariantAuditor aud(sys);
    setThrowOnError(true);
    EXPECT_THROW(aud.checkCycle(0), std::runtime_error);
    setThrowOnError(false);
}

TEST(Invariants, DetectsInclusionViolation)
{
    System sys{SystemParams{}};
    // An L1D line with no L2 copy below it.
    sys.mem().l1d(0).array().insert(0xc000, false);

    InvariantAuditor aud(sys);
    setThrowOnError(true);
    EXPECT_THROW(aud.checkCycle(0), std::runtime_error);
    setThrowOnError(false);
}

TEST(Invariants, DirtyL1dAboveCleanL2CountsAsTheOwner)
{
    // The legal single-owner shape: dirty L1D over a clean local L2,
    // no remote copies. The auditor must accept it...
    SystemParams sp;
    sp.numCpus = 2;
    System sys(sp);
    const Addr line = 0x10000;
    sys.mem().l2(0).array().insert(line, false);
    sys.mem().l1d(0).array().insert(line, /*dirty=*/true);
    InvariantAuditor aud(sys);
    aud.checkCycle(0); // no violation.

    // ...and must flag the same shape once a remote sharer appears.
    sys.mem().l2(1).array().insert(line, false);
    setThrowOnError(true);
    EXPECT_THROW(aud.checkCycle(1), std::runtime_error);
    setThrowOnError(false);
}

TEST(Invariants, LostInvalidationInjectionIsCaught)
{
    SystemParams sp;
    sp.numCpus = 2;
    System sys(sp);
    const Addr va = 0x20000;

    // CPU1 reads the line: clean copies in its L1D and L2.
    sys.mem().data(1, va, false, 0);

    // Drop the next invalidation broadcast, then have CPU0 write the
    // same line: CPU0's copy comes in dirty while CPU1's stale copy
    // survives — exactly what the auditor must catch.
    sys.mem().coherence().injectLostInvalidate(
        sys.mem().coherence().invalidationsSent());
    sys.mem().data(0, va, true, 1000);

    InvariantAuditor aud(sys);
    setThrowOnError(true);
    EXPECT_THROW(aud.checkCycle(1000), std::runtime_error);
    setThrowOnError(false);
}

TEST(Invariants, WithoutInjectionTheSameSequenceIsCoherent)
{
    SystemParams sp;
    sp.numCpus = 2;
    System sys(sp);
    const Addr va = 0x20000;
    sys.mem().data(1, va, false, 0);
    sys.mem().data(0, va, true, 1000); // upgrade invalidates CPU1.

    InvariantAuditor aud(sys);
    aud.checkCycle(1000);
    EXPECT_GT(aud.checksRun(), 0u);
}

TEST(Invariants, PerfectCachesSkipCoherenceChecks)
{
    SystemParams sp;
    sp.mem.perfectL1 = true;
    System sys(sp);
    // With a perfect L1 nothing real is in the arrays; the inclusion
    // walk must not fire on idealized configurations.
    InvariantAuditor aud(sys);
    aud.checkCycle(0);
}

/** The panic message of @p sys's end-of-run audit, or "" if clean. */
std::string
endOfRunPanic(System &sys)
{
    InvariantAuditor aud(sys);
    setThrowOnError(true);
    std::string msg;
    try {
        aud.checkEndOfRun(sys.currentCycle());
    } catch (const std::runtime_error &e) {
        msg = e.what();
    }
    setThrowOnError(false);
    return msg;
}

TEST(Invariants, AbandonedMissIsNeverPairedWithAFill)
{
    System sys{SystemParams{}};
    sys.attachTrace(0, generateTrace(specint95Profile(), 8000));
    ASSERT_FALSE(sys.run().hitCycleCap);
    ASSERT_EQ(endOfRunPanic(sys), "");

    // A miss lookup whose fill never comes.
    const auto res =
        sys.mem().l2(0).lookup(0x7f000000, false, sys.currentCycle());
    ASSERT_FALSE(res.hit || res.merged);
    EXPECT_NE(endOfRunPanic(sys).find("never paired with a fill"),
              std::string::npos)
        << endOfRunPanic(sys);
}

TEST(Invariants, FillFarPastTheEndIsUnreachable)
{
    System sys{SystemParams{}};
    sys.attachTrace(0, generateTrace(specint95Profile(), 8000));
    ASSERT_FALSE(sys.run().hitCycleCap);
    const Cycle end = sys.currentCycle();
    ASSERT_EQ(sys.mem().l2(0).nextPendingFill(end), kCycleNever);

    sys.mem().l2(0).fill(0x7f000000, end + 2'000'000, false);
    EXPECT_NE(endOfRunPanic(sys).find("unreachable"), std::string::npos)
        << endOfRunPanic(sys);
}

} // namespace
} // namespace s64v
