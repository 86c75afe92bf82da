/**
 * @file
 * Watchdog tests: the check() state machine cycle by cycle, then the
 * scheduled watchdog inside whole runs, pinned to the firing cycles
 * and diagnoses of a watchdog checked on every visited cycle.
 */

#include "check/watchdog.hh"

#include <cstdio>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "check/fault_inject.hh"
#include "ckpt/checkpoint.hh"
#include "common/logging.hh"
#include "hand_trace.hh"
#include "model/params.hh"
#include "sim/system.hh"

namespace s64v::check
{
namespace
{

TEST(Watchdog, DoesNotFireWhileProgressing)
{
    Watchdog wd(100);
    std::uint64_t committed = 0;
    for (Cycle c = 0; c < 10'000; ++c) {
        if (c % 50 == 0)
            ++committed; // slow but steady progress.
        EXPECT_FALSE(wd.check(c, committed, c));
    }
    EXPECT_FALSE(wd.fired());
}

TEST(Watchdog, FiresAfterThresholdWithoutCommits)
{
    Watchdog wd(100);
    EXPECT_FALSE(wd.check(0, 5, 0)); // progress observed at cycle 0.
    bool fired = false;
    Cycle fired_at = 0;
    for (Cycle c = 1; c < 500 && !fired; ++c) {
        fired = wd.check(c, 5, c);
        fired_at = c;
    }
    ASSERT_TRUE(fired);
    EXPECT_EQ(fired_at, 100u);
    EXPECT_TRUE(wd.fired());
    EXPECT_EQ(wd.firedCycle(), 100u);
    // Fires exactly once.
    EXPECT_FALSE(wd.check(fired_at + 1, 5, fired_at + 1));
}

TEST(Watchdog, CommitClearsTheDeadline)
{
    Watchdog wd(100);
    std::uint64_t committed = 0;
    for (Cycle c = 0; c < 99; ++c)
        EXPECT_FALSE(wd.check(c, committed, c));
    ++committed; // commit just before the deadline.
    EXPECT_FALSE(wd.check(99, committed, 99));
    for (Cycle c = 100; c < 198; ++c)
        EXPECT_FALSE(wd.check(c, committed, c));
    // 100 cycles after the commit at cycle 99.
    EXPECT_TRUE(wd.check(199, committed, 199));
}

TEST(Watchdog, PendingEventWithinWindowDefers)
{
    Watchdog wd(100);
    // A fill completing 50 cycles after the deadline: a legitimate
    // long-latency stall, not a deadlock.
    wd.setEventProbe([](Cycle now) { return now + 50; });
    std::uint64_t committed = 1;
    wd.check(0, committed, 0);
    for (Cycle c = 1; c < 400; ++c)
        EXPECT_FALSE(wd.check(c, committed, c)) << "cycle " << c;
    EXPECT_GT(wd.graceExtensions(), 0u);
}

TEST(Watchdog, UnreachableEventDoesNotDefer)
{
    Watchdog wd(100);
    // A lost bus grant parks its transaction at kCycleNever / 2 —
    // far beyond one threshold, so it must not count as progress.
    wd.setEventProbe([](Cycle) { return kCycleNever / 2; });
    wd.check(0, 1, 0);
    bool fired = false;
    for (Cycle c = 1; c <= 100 && !fired; ++c)
        fired = wd.check(c, 1, c);
    EXPECT_TRUE(fired);
    EXPECT_EQ(wd.graceExtensions(), 0u);
}

TEST(Watchdog, NoEventProbeMeansNoGrace)
{
    Watchdog wd(10);
    wd.check(0, 0, 0);
    bool fired = false;
    for (Cycle c = 1; c <= 10 && !fired; ++c)
        fired = wd.check(c, 0, c);
    EXPECT_TRUE(fired);
}

TEST(Watchdog, DiagnosisMentionsTheDrought)
{
    Watchdog wd(10);
    wd.check(0, 7, 0);
    for (Cycle c = 1; c <= 10; ++c)
        wd.check(c, 7, c);
    const std::string d = wd.diagnosis();
    EXPECT_NE(d.find("no instruction committed"), std::string::npos);
    EXPECT_NE(d.find("7 instructions"), std::string::npos);
}

TEST(Watchdog, ChecksAtTheDeadlineMatchChecksEveryCycle)
{
    // Commits at cycles 0..40 and 150, then nothing. A fill lands at
    // 180, inside one period of the first deadline (140): the grace
    // extension pushes the deadline to 280, and the commit at 150,
    // before the extended deadline, pulls it back to 250. A watchdog
    // checked only at deadline() (and on every cycle while it awaits
    // an event) must fire on the same cycle, with the same diagnosis,
    // as one checked every cycle.
    const auto committed_by = [](Cycle c) -> std::uint64_t {
        return (c < 40 ? c + 1 : 41) + (c >= 150 ? 1 : 0);
    };
    const auto last_commit = [](Cycle c) -> Cycle {
        return c >= 150 ? 150 : (c < 40 ? c : 40);
    };
    const auto fill = [](Cycle now) {
        return now < 180 ? Cycle{180} : kCycleNever;
    };

    Watchdog every(100);
    every.setEventProbe(fill);
    Cycle every_fired = 0;
    for (Cycle c = 0; c < 1000 && !every.fired(); ++c) {
        if (every.check(c, committed_by(c), c))
            every_fired = c;
    }

    Watchdog sched(100);
    sched.setEventProbe(fill);
    Cycle sched_fired = 0;
    std::uint64_t checks = 0;
    Cycle next = 0;
    for (Cycle c = 0; c < 1000 && !sched.fired(); ++c) {
        if (c != next && !sched.awaitingEvent(c - 1))
            continue;
        ++checks;
        if (sched.check(c, committed_by(c), last_commit(c)))
            sched_fired = c;
        next = sched.deadline();
    }

    ASSERT_TRUE(every.fired());
    EXPECT_EQ(every_fired, 250u);
    EXPECT_EQ(sched_fired, every_fired);
    EXPECT_EQ(sched.diagnosis(), every.diagnosis());
    EXPECT_GT(sched.graceExtensions(), 0u);
    // Far fewer checks than cycles: the point of scheduling it.
    EXPECT_LT(checks * 2, every_fired);
}

TEST(Watchdog, ZeroThresholdIsFatal)
{
    setThrowOnError(true);
    EXPECT_THROW(Watchdog wd(0), std::runtime_error);
    setThrowOnError(false);
}

// --- Whole runs: the watchdog fires where the per-visit poll did ---

/**
 * Run @p cpus hand-traced CPUs of @p instrs records under @p sp, with
 * @p fault armed at construction and, if @p restore_from names a
 * checkpoint, restored from it first. @return the watchdog's panic
 * message, or "drained" when the run ended without one.
 */
std::string
watchdogDeath(const SystemParams &sp, unsigned cpus, std::size_t instrs,
              const std::string &fault,
              const std::string &restore_from = "")
{
    if (!fault.empty())
        activeFaultPlan().parse(fault);
    System sys(sp);
    activeFaultPlan().clear();
    for (CpuId cpu = 0; cpu < cpus; ++cpu)
        sys.attachTrace(cpu, testutil::handTrace(7, instrs, cpu));
    setThrowOnError(true);
    std::string out = "drained";
    try {
        if (!restore_from.empty())
            ckpt::restoreSystemCheckpoint(sys, restore_from);
        sys.run();
    } catch (const std::runtime_error &e) {
        out = e.what();
    }
    setThrowOnError(false);
    return out;
}

SystemParams
machine(unsigned cpus, bool skip_ahead, std::uint64_t watchdog_cycles)
{
    SystemParams sp = sparc64vBase(cpus).sys;
    sp.skipAhead = skip_ahead;
    sp.watchdogCycles = watchdog_cycles;
    return sp;
}

std::string
drought(std::uint64_t cycles, Cycle last, std::uint64_t committed,
        std::uint64_t grace)
{
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "panic: no instruction committed for %llu cycles "
                  "(last progress at cycle %llu, %llu instructions "
                  "committed, %llu grace extensions)",
                  static_cast<unsigned long long>(cycles),
                  static_cast<unsigned long long>(last),
                  static_cast<unsigned long long>(committed),
                  static_cast<unsigned long long>(grace));
    return buf;
}

// The expected messages are those of a watchdog checked on every
// visited cycle; checking it only at its deadline (and on every visit
// while it awaits an event) must not change one character.

TEST(WatchdogRun, CommitStallFiresOnTheSameCycle)
{
    // --inject-fault=stall:3000 under the default 100 k-cycle period.
    const std::pair<unsigned, std::string> cases[] = {
        {1, drought(100000, 2756, 101, 0)},
        {4, drought(100000, 2935, 286, 0)},
    };
    for (const auto &[cpus, expected] : cases) {
        for (bool skip : {false, true}) {
            SCOPED_TRACE(std::to_string(cpus) + "P, " +
                         (skip ? "fast engine" : "plain loop"));
            EXPECT_EQ(watchdogDeath(machine(cpus, skip,
                                            kDefaultWatchdogCycles),
                                    cpus, 20000, "stall:3000"),
                      expected);
        }
    }
}

TEST(WatchdogRun, RestoredRunFiresOnTheSameCycle)
{
    // A restored run has no commit history: its first check dates
    // progress to the start cycle when the cut came after a commit,
    // and leaves it at cycle 0 when the cut came before the first.
    struct Case
    {
        Cycle cut;
        const char *fault;
        std::string expected;
    };
    const Case cases[] = {
        {5, "stall:10", drought(2000, 0, 0, 0)},
        {1500, "stall:1501", drought(2000, 1501, 32, 0)},
        {5, "stall:2500", drought(2000, 2494, 75, 0)},
    };
    const std::string path =
        std::string(::testing::TempDir()) + "watchdog_restore.ckpt";
    for (const Case &c : cases) {
        for (bool skip : {false, true}) {
            SCOPED_TRACE(std::string("cut at ") +
                         std::to_string(c.cut) + ", " + c.fault +
                         (skip ? ", fast engine" : ", plain loop"));
            SystemParams cut = machine(1, skip, 2000);
            cut.checkpoint.atCycle = c.cut;
            cut.checkpoint.path = path;
            cut.checkpoint.stopAfter = true;
            ASSERT_EQ(watchdogDeath(cut, 1, 20000, ""), "drained");
            EXPECT_EQ(watchdogDeath(machine(1, skip, 2000), 1, 20000,
                                    c.fault, path),
                      c.expected);
        }
    }
    std::remove(path.c_str());
}

TEST(WatchdogRun, GraceExtensionsAndLaterCommitsMatch)
{
    // Periods this short outlast many fills: the deadline is pushed
    // to a pending fill again and again, and commits arrive before
    // the extended deadlines, until one gap has no fill to wait for.
    // Both engines give the one diagnosis, grace count included.
    struct Case
    {
        std::uint64_t period;
        std::string expected;
    };
    const Case cases[] = {
        {130, drought(130, 6049, 190, 31)},
        {170, drought(170, 1011, 26, 5)},
    };
    for (const Case &c : cases) {
        for (bool skip : {false, true}) {
            SCOPED_TRACE(std::to_string(c.period) + "-cycle period, " +
                         (skip ? "fast engine" : "plain loop"));
            EXPECT_EQ(watchdogDeath(machine(1, skip, c.period), 1, 20000,
                                    ""),
                      c.expected);
        }
    }
}

} // namespace
} // namespace s64v::check
