/**
 * @file
 * Crash-recoverable sweep tests: a journalled sweep must record each
 * point that finishes ok durably and exactly once, run a failing
 * point once per sweep, resume from its journal re-running only the
 * points without a matching entry with a bit-identical merged result,
 * refuse and leave alone a file that is not a journal, share one
 * journal between two sweeps, write the same bytes at any worker
 * count, and survive the injected kill-point fault — an abrupt
 * std::_Exit mid-run, modelling an OOM-kill — with the distinct exit
 * code 86 and a clean resume afterwards. Also covers the fault and
 * sweep-point blocks of the crash report.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "check/crash_report.hh"
#include "check/fault_inject.hh"
#include "check/signals.hh"
#include "common/logging.hh"
#include "exp/journal.hh"
#include "exp/sweep.hh"
#include "model/perf_model.hh"
#include "workload/workloads.hh"

namespace s64v
{
namespace
{

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

/** The entries of the journal at @p path, which must be readable. */
std::vector<exp::JournalEntry>
journalEntries(const std::string &path)
{
    auto entries = exp::readJournal(path);
    EXPECT_TRUE(entries) << path;
    return entries ? *entries : std::vector<exp::JournalEntry>{};
}

exp::Sweep
threePointSweep()
{
    exp::Sweep sweep;
    sweep.add("int/a", sparc64vBase(), specint95Profile(), 8000);
    sweep.add("tpcc/b", sparc64vBase(), tpccProfile(), 8000);
    sweep.add("int/c", withIssueWidth(sparc64vBase(), 2),
              specint95Profile(), 8000);
    return sweep;
}

TEST(ResumeSweep, JournalRecordsEveryFinishedPoint)
{
    const std::string jpath = tempPath("record.journal");
    std::remove(jpath.c_str());

    exp::SweepOptions opts;
    opts.threads = 1;
    opts.run.journalPath = jpath;
    const exp::Sweep sweep = threePointSweep();
    const auto results = exp::SweepRunner(opts).run(sweep);
    ASSERT_EQ(results.size(), 3u);
    for (const exp::PointResult &r : results)
        ASSERT_TRUE(r.ok) << r.error;

    const auto entries = journalEntries(jpath);
    ASSERT_EQ(entries.size(), 3u);
    for (std::size_t i = 0; i < entries.size(); ++i) {
        EXPECT_EQ(entries[i].index, i);
        EXPECT_EQ(entries[i].label, sweep.points()[i].label);
        EXPECT_NE(entries[i].configHash, 0u);
        EXPECT_NE(entries[i].workloadHash, 0u);
        EXPECT_EQ(diffSim(entries[i].sim, results[i].sim), "");
    }
    // Distinct machines / workloads get distinct keys.
    EXPECT_NE(entries[0].configHash, entries[2].configHash);
    EXPECT_NE(entries[0].workloadHash, entries[1].workloadHash);
    std::remove(jpath.c_str());
}

TEST(ResumeSweep, ResumeOfACompleteJournalRunsNothing)
{
    const std::string jpath = tempPath("complete.journal");
    std::remove(jpath.c_str());

    std::atomic<int> executed{0};
    auto countingSweep = [&]() {
        exp::Sweep sweep = threePointSweep();
        sweep.setMetricFn([&](PerfModel &, const SimResult &res,
                              std::map<std::string, double> &m) {
            ++executed;
            m["ipc_copy"] = res.ipc;
        });
        return sweep;
    };

    exp::SweepOptions opts;
    opts.threads = 1;
    opts.run.journalPath = jpath;
    const auto first = exp::SweepRunner(opts).run(countingSweep());
    ASSERT_EQ(executed.load(), 3);

    std::string sink;
    setLogSink(&sink);
    opts.run.resume = true;
    const auto resumed = exp::SweepRunner(opts).run(countingSweep());
    setLogSink(nullptr);
    EXPECT_NE(sink.find("3 of 3 points already complete"),
              std::string::npos)
        << sink;

    // Nothing re-ran, and the journal round-trip is bit-identical —
    // the SimResults and the captured metrics alike.
    EXPECT_EQ(executed.load(), 3);
    ASSERT_EQ(resumed.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        ASSERT_TRUE(resumed[i].ok) << resumed[i].error;
        EXPECT_EQ(resumed[i].label, first[i].label);
        EXPECT_EQ(diffSim(first[i].sim, resumed[i].sim), "");
        EXPECT_EQ(first[i].metrics.at("ipc_copy"),
                  resumed[i].metrics.at("ipc_copy"));
    }
    std::remove(jpath.c_str());
}

TEST(ResumeSweep, NonJournalFileIsRefusedAndLeftAlone)
{
    const std::string jpath = tempPath("cut.journal");
    std::remove(jpath.c_str());

    exp::SweepOptions opts;
    opts.threads = 1;
    opts.run.journalPath = jpath;
    const auto first = exp::SweepRunner(opts).run(threePointSweep());
    for (const exp::PointResult &r : first)
        ASSERT_TRUE(r.ok) << r.error;

    // Cut the journal in half: what is left is no journal, and the
    // sweep must neither trust it nor write over it.
    std::string bytes = readBytes(jpath);
    ASSERT_FALSE(bytes.empty());
    bytes.resize(bytes.size() / 2);
    {
        std::ofstream out(jpath, std::ios::binary | std::ios::trunc);
        out << bytes;
    }

    std::atomic<int> executed{0};
    exp::Sweep sweep = threePointSweep();
    sweep.setMetricFn([&](PerfModel &, const SimResult &,
                          std::map<std::string, double> &) {
        ++executed;
    });
    std::string sink;
    setLogSink(&sink);
    opts.run.resume = true;
    const auto resumed = exp::SweepRunner(opts).run(sweep);
    setLogSink(nullptr);
    EXPECT_NE(sink.find("'" + jpath + "'"), std::string::npos) << sink;
    EXPECT_EQ(executed.load(), 3);
    ASSERT_EQ(resumed.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        ASSERT_TRUE(resumed[i].ok) << resumed[i].error;
        EXPECT_EQ(diffSim(first[i].sim, resumed[i].sim), "");
    }
    EXPECT_EQ(readBytes(jpath), bytes);
    std::remove(jpath.c_str());
}

TEST(ResumeSweep, TwoSweepsShareOneJournal)
{
    const std::string jpath = tempPath("shared.journal");
    std::remove(jpath.c_str());

    // Two sweeps of one program journal into one file, as
    // fig19_accuracy's model ladder and verification sweeps do.
    std::atomic<int> executed{0};
    auto makeSweep = [&](const char *prefix) {
        exp::Sweep sweep;
        sweep.add(std::string(prefix) + "/int", sparc64vBase(),
                  specint95Profile(), 4000);
        sweep.add(std::string(prefix) + "/tpcc", sparc64vBase(),
                  tpccProfile(), 4000);
        sweep.setMetricFn([&](PerfModel &, const SimResult &,
                              std::map<std::string, double> &) {
            ++executed;
        });
        return sweep;
    };
    exp::SweepOptions opts;
    opts.threads = 1;
    opts.run.journalPath = jpath;
    const auto ladder = exp::SweepRunner(opts).run(makeSweep("ladder"));
    const auto verify = exp::SweepRunner(opts).run(makeSweep("verify"));
    ASSERT_EQ(executed.load(), 4);
    EXPECT_EQ(journalEntries(jpath).size(), 4u);

    // Resuming each fills every point of its own from the journal,
    // and the other sweep's entries are no cause for a warning.
    std::string sink;
    setLogSink(&sink);
    opts.run.resume = true;
    const auto ladder2 = exp::SweepRunner(opts).run(makeSweep("ladder"));
    const auto verify2 = exp::SweepRunner(opts).run(makeSweep("verify"));
    setLogSink(nullptr);
    EXPECT_EQ(executed.load(), 4);
    EXPECT_EQ(sink.find("no longer match"), std::string::npos) << sink;
    EXPECT_EQ(sink.find("warn: "), std::string::npos) << sink;
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(diffSim(ladder[i].sim, ladder2[i].sim), "");
        EXPECT_EQ(diffSim(verify[i].sim, verify2[i].sim), "");
    }
    EXPECT_EQ(journalEntries(jpath).size(), 4u);
    std::remove(jpath.c_str());
}

TEST(ResumeSweep, JournalBytesDoNotDependOnWorkers)
{
    const std::string serial = tempPath("serial.journal");
    const std::string parallel = tempPath("parallel.journal");
    std::remove(serial.c_str());
    std::remove(parallel.c_str());

    exp::SweepOptions opts;
    opts.threads = 1;
    opts.run.journalPath = serial;
    exp::SweepRunner(opts).run(threePointSweep());
    opts.threads = 3;
    opts.run.journalPath = parallel;
    exp::SweepRunner(opts).run(threePointSweep());

    const std::string bytes = readBytes(serial);
    EXPECT_FALSE(bytes.empty());
    EXPECT_TRUE(bytes == readBytes(parallel));
    std::remove(serial.c_str());
    std::remove(parallel.c_str());
}

TEST(ResumeSweep, InterruptedParallelSweepJournalsOnceAndResumes)
{
    const std::string jpath = tempPath("interrupt.journal");
    std::remove(jpath.c_str());

    // Point 1 runs ~5x longer than point 0, so with two workers the
    // stop request raised at point 0's completion deterministically
    // lands while point 1 is still running and point 2 undispatched.
    auto makeSweep = []() {
        exp::Sweep sweep;
        sweep.add("short", sparc64vBase(), specint95Profile(), 6000);
        sweep.add("long", sparc64vBase(), tpccProfile(), 30000);
        sweep.add("tail", sparc64vBase(), specint95Profile(), 6000);
        return sweep;
    };
    exp::SweepOptions base;
    base.threads = 2;
    const auto reference = exp::SweepRunner(base).run(makeSweep());
    for (const exp::PointResult &r : reference)
        ASSERT_TRUE(r.ok) << r.error;

    // A stop request lands after the first completion — the model of
    // SIGINT/SIGTERM mid-sweep (the signal handler calls exactly
    // this). The finished point is journalled exactly once; the
    // running point stops at the next cycle boundary and its PARTIAL
    // result must not become durable; the undispatched point comes
    // back "interrupted". Resume re-runs exactly those two.
    check::clearStopRequest();
    std::string sink;
    setLogSink(&sink);
    exp::SweepOptions opts = base;
    opts.run.journalPath = jpath;
    opts.progressFn = [](std::size_t done, std::size_t, double) {
        if (done == 1)
            check::requestStop();
    };
    const auto killed = exp::SweepRunner(opts).run(makeSweep());
    check::clearStopRequest();
    setLogSink(nullptr);

    ASSERT_EQ(killed.size(), 3u);
    EXPECT_TRUE(killed[0].ok) << killed[0].error;
    EXPECT_FALSE(killed[0].sim.interrupted);
    EXPECT_TRUE(killed[1].ok) << killed[1].error;
    EXPECT_TRUE(killed[1].sim.interrupted)
        << "the running point should have been cut short";
    EXPECT_FALSE(killed[2].ok);
    EXPECT_EQ(killed[2].error, "interrupted");

    auto entries = journalEntries(jpath);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].index, 0u);

    // Resume: only the cut-short and undispatched points run; the
    // merged sweep is bit-identical to one never interrupted.
    std::atomic<int> executed{0};
    exp::Sweep sweep = makeSweep();
    sweep.setMetricFn([&](PerfModel &, const SimResult &,
                          std::map<std::string, double> &) {
        ++executed;
    });
    exp::SweepOptions ropts = base;
    ropts.run.journalPath = jpath;
    ropts.run.resume = true;
    const auto resumed = exp::SweepRunner(ropts).run(sweep);
    EXPECT_EQ(executed.load(), 2);
    ASSERT_EQ(resumed.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(resumed[i].ok) << resumed[i].error;
        EXPECT_EQ(diffSim(reference[i].sim, resumed[i].sim), "");
    }
    EXPECT_EQ(journalEntries(jpath).size(), 3u);
    std::remove(jpath.c_str());
}

TEST(ResumeSweep, TransientFailureRecoversOnResume)
{
    const std::string jpath = tempPath("transient.journal");
    std::remove(jpath.c_str());

    // The point itself is healthy; its metric probe dies on the first
    // call only — a stand-in for a failure that is not a function of
    // the point, such as the host running out of memory.
    std::atomic<int> calls{0};
    exp::Sweep sweep;
    sweep.add("flaky", sparc64vBase(), tpccProfile(), 6000);
    sweep.setMetricFn([&](PerfModel &, const SimResult &,
                          std::map<std::string, double> &) {
        if (calls.fetch_add(1) == 0)
            throw std::runtime_error("flaky metric probe");
    });

    exp::SweepOptions opts;
    opts.threads = 1;
    opts.run.journalPath = jpath;
    std::string sink;
    setLogSink(&sink);
    const auto results = exp::SweepRunner(opts).run(sweep);
    setLogSink(nullptr);

    // The sweep runs the point once and reports the failure.
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_NE(results[0].error.find("flaky metric probe"),
              std::string::npos)
        << results[0].error;
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(journalEntries(jpath).size(), 0u);

    // Resume is the retry: a failed point has no entry to hold it
    // back, and this time it succeeds.
    opts.run.resume = true;
    setLogSink(&sink);
    const auto resumed = exp::SweepRunner(opts).run(sweep);
    setLogSink(nullptr);
    ASSERT_EQ(resumed.size(), 1u);
    EXPECT_TRUE(resumed[0].ok) << resumed[0].error;
    EXPECT_EQ(calls.load(), 2);
    EXPECT_EQ(journalEntries(jpath).size(), 1u);
    std::remove(jpath.c_str());
}

TEST(ResumeSweep, PersistentFailureRunsOncePerSweep)
{
    const std::string jpath = tempPath("persistent.journal");
    std::remove(jpath.c_str());

    std::atomic<int> healthyRuns{0};
    exp::Sweep sweep;
    sweep.add("ok", sparc64vBase(), tpccProfile(), 6000);
    MachineParams sick = sparc64vBase();
    sick.sys.watchdogCycles = 2; // deadlocks on every run.
    sweep.add("sick", sick, tpccProfile(), 6000);
    // Only a point that finishes its run reaches the probe, so this
    // counts runs of "ok" alone.
    sweep.setMetricFn([&](PerfModel &, const SimResult &,
                          std::map<std::string, double> &) {
        ++healthyRuns;
    });

    exp::SweepOptions opts;
    opts.threads = 1;
    opts.run.journalPath = jpath;
    opts.run.crashReportPath = tempPath("persistent_triage.json");
    std::string sink;
    setLogSink(&sink);
    const auto results = exp::SweepRunner(opts).run(sweep);
    setLogSink(nullptr);

    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("no instruction committed"),
              std::string::npos)
        << results[1].error;
    EXPECT_EQ(healthyRuns.load(), 1);
    // The sick point ran, and died, once; only the healthy one is
    // journalled.
    EXPECT_EQ(check::crashCount(), 1u);
    auto entries = journalEntries(jpath);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].index, 0u);

    // Resume runs only the failed point, once more; the healthy point
    // comes back from the journal.
    setLogSink(&sink);
    opts.run.resume = true;
    const auto resumed = exp::SweepRunner(opts).run(sweep);
    setLogSink(nullptr);
    ASSERT_EQ(resumed.size(), 2u);
    EXPECT_TRUE(resumed[0].ok);
    EXPECT_FALSE(resumed[1].ok);
    EXPECT_EQ(healthyRuns.load(), 1);
    EXPECT_EQ(check::crashCount(), 1u);
    EXPECT_EQ(journalEntries(jpath).size(), 1u);
    std::remove(jpath.c_str());
    std::remove(opts.run.crashReportPath.c_str());
}

TEST(ResumeSweep, StaleJournalEntriesAreIgnoredWithAWarning)
{
    const std::string jpath = tempPath("stale.journal");
    std::remove(jpath.c_str());

    exp::SweepOptions opts;
    opts.threads = 1;
    opts.run.journalPath = jpath;
    {
        exp::Sweep sweep;
        sweep.add("pt", sparc64vBase(), tpccProfile(), 6000);
        ASSERT_TRUE(exp::SweepRunner(opts).run(sweep)[0].ok);
    }

    // Same label, same workload — but the machine changed, so the
    // recorded result no longer describes this sweep. Resume must
    // re-run it rather than mix stale numbers in.
    std::atomic<int> executed{0};
    exp::Sweep changed;
    changed.add("pt", withIssueWidth(sparc64vBase(), 2), tpccProfile(),
                6000);
    changed.setMetricFn([&](PerfModel &, const SimResult &,
                            std::map<std::string, double> &) {
        ++executed;
    });
    std::string sink;
    setLogSink(&sink);
    opts.run.resume = true;
    const auto results = exp::SweepRunner(opts).run(changed);
    setLogSink(nullptr);

    ASSERT_TRUE(results[0].ok) << results[0].error;
    EXPECT_EQ(executed.load(), 1);
    EXPECT_NE(sink.find("no longer match"), std::string::npos) << sink;

    // Same machine and profile, but another --seed=: the point now
    // replays different traces, so its entry is stale as well.
    executed = 0;
    sink.clear();
    setLogSink(&sink);
    opts.run.seed = 3;
    const auto reseeded = exp::SweepRunner(opts).run(changed);
    setLogSink(nullptr);

    ASSERT_TRUE(reseeded[0].ok) << reseeded[0].error;
    EXPECT_EQ(executed.load(), 1);
    EXPECT_NE(sink.find("no longer match"), std::string::npos) << sink;
    std::remove(jpath.c_str());
}

TEST(ResumeSweep, KillPointDiesWithCode86AndResumeCompletesTheRest)
{
    const std::string jpath = tempPath("kill.journal");
    std::remove(jpath.c_str());

    exp::SweepOptions opts;
    opts.threads = 1;
    auto makeSweep = []() {
        exp::Sweep sweep;
        sweep.add("short", sparc64vBase(), specint95Profile(), 3000);
        sweep.add("long", sparc64vBase(), specint95Profile(), 20000);
        return sweep;
    };
    const auto baseline = exp::SweepRunner(opts).run(makeSweep());
    ASSERT_TRUE(baseline[0].ok && baseline[1].ok);
    // SimResult.cycles counts from the end of warmup; the kill-point
    // probe fires at an absolute kernel cycle of each point's run.
    auto endCycle = [](const SimResult &r) {
        return r.warmupEndCycle + r.cycles;
    };
    const Cycle at =
        endCycle(baseline[0].sim) + endCycle(baseline[1].sim) / 2;
    ASSERT_LT(at, endCycle(baseline[1].sim))
        << "kill cycle must land inside the long point";

    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
        // Child: the sweep that gets OOM-killed. std::_Exit in the
        // kill-point probe means no flushes and no atexit — the only
        // durable state is what the journal already fsynced.
        static std::string childSink;
        setLogSink(&childSink);
        check::activeFaultPlan().parse(
            "kill-point:" + std::to_string(at));
        exp::SweepOptions copts = opts;
        copts.run.journalPath = jpath;
        exp::SweepRunner(copts).run(makeSweep());
        std::_Exit(0); // unreachable: the fault fires first.
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), check::kInjectedFaultExitCode);

    // The short point survived the crash; the long one did not.
    auto entries = journalEntries(jpath);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].index, 0u);

    // Resume re-runs only the long point; the merged sweep is
    // bit-identical to the never-killed baseline.
    std::atomic<int> executed{0};
    exp::Sweep sweep = makeSweep();
    sweep.setMetricFn([&](PerfModel &, const SimResult &,
                          std::map<std::string, double> &) {
        ++executed;
    });
    exp::SweepOptions ropts = opts;
    ropts.run.journalPath = jpath;
    ropts.run.resume = true;
    const auto resumed = exp::SweepRunner(ropts).run(sweep);
    EXPECT_EQ(executed.load(), 1);
    ASSERT_EQ(resumed.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        ASSERT_TRUE(resumed[i].ok) << resumed[i].error;
        EXPECT_EQ(diffSim(baseline[i].sim, resumed[i].sim), "");
    }
    EXPECT_EQ(journalEntries(jpath).size(), 2u);

    // The first resume completed the sweep: a second one runs nothing.
    std::string sink;
    setLogSink(&sink);
    exp::SweepRunner(ropts).run(sweep);
    setLogSink(nullptr);
    EXPECT_EQ(executed.load(), 1);
    EXPECT_NE(sink.find("resume: 2 of 2 points already complete"),
              std::string::npos)
        << sink;
    std::remove(jpath.c_str());
}

TEST(ResumeSweep, CrashReportNamesInjectedFaultAndSweepPoint)
{
    check::activeFaultPlan().parse("stall:5000");
    check::setCrashPoint("tpcc/4w", 3);
    System sys(sparc64vBase().sys);
    const std::string json =
        check::buildCrashReportJson(sys, "panic", "boom");
    check::clearCrashPoint();
    check::activeFaultPlan().clear();

    EXPECT_NE(json.find("\"injected_fault\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"kind\":\"stall\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"at\":5000"), std::string::npos) << json;
    EXPECT_NE(json.find("\"sweep_point\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"label\":\"tpcc/4w\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"index\":3"), std::string::npos) << json;

    // Without a plan or a point, neither block appears.
    const std::string bare =
        check::buildCrashReportJson(sys, "panic", "boom");
    EXPECT_EQ(bare.find("injected_fault"), std::string::npos);
    EXPECT_EQ(bare.find("sweep_point"), std::string::npos);
}

} // namespace
} // namespace s64v
