#include "check/crash_report.hh"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "check/fault_inject.hh"
#include "common/logging.hh"
#include "exp/sweep.hh"
#include "model/params.hh"
#include "model/perf_model.hh"
#include "obs/run_obs.hh"
#include "sim/system.hh"
#include "workload/generator.hh"
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
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
expectKey(const std::string &json, const char *key)
{
    EXPECT_NE(json.find(std::string("\"") + key + "\""),
              std::string::npos)
        << "missing key: " << key;
}

TEST(CrashReport, JsonCarriesTheDocumentedSchema)
{
    System sys{SystemParams{}};
    sys.attachTrace(0, generateTrace(specint95Profile(), 4000));
    sys.run();

    const std::string json =
        check::buildCrashReportJson(sys, "panic", "test message");
    for (const char *key :
         {"kind", "message", "cycle", "num_cpus", "cores", "cpu",
          "raw_issued", "raw_committed", "last_commit_cycle",
          "occupancy", "window", "window_capacity", "fetch_queue",
          "lq", "lq_capacity", "sq", "sq_capacity", "pending_stores",
          "int_rename", "fp_rename", "stations", "recent_commits",
          "mem", "bus_transactions", "coherence_invalidations",
          "pending_fills"})
        expectKey(json, key);
    EXPECT_NE(json.find("\"kind\":\"panic\""), std::string::npos);
    EXPECT_NE(json.find("test message"), std::string::npos);
    // After a clean run every recent-commit slot is populated.
    EXPECT_NE(json.find("\"seq\""), std::string::npos);
    EXPECT_NE(json.find("\"pc\""), std::string::npos);
}

TEST(CrashReport, WriteFailureWarnsInsteadOfCrashing)
{
    EXPECT_FALSE(check::writeCrashReport(
        "/nonexistent-dir/report.json", "{}"));
}

TEST(CrashReport, PanicTriggersTheInstalledHook)
{
    System sys{SystemParams{}};
    const std::string path = tempPath("hooked_crash.json");
    std::remove(path.c_str());
    {
        check::ScopedCrashReporting sink(path, "",
                                         obs::ObsOptions::kUnset);
        // Registered after the guard, as System::run() registers
        // (building the guard clears an earlier registration).
        check::setCrashSystem(&sys);
        ScopedThrowOnError isolate;
        EXPECT_THROW(panic("synthetic failure %d", 42),
                     std::runtime_error);
    }

    const std::string json = slurp(path);
    ASSERT_FALSE(json.empty()) << "crash report was not written";
    EXPECT_EQ(json.rfind("{\"schema\": \"s64v-crash-triage-1\", "
                         "\"count\": 1, \"crashes\": [{",
                         0),
              0u)
        << json;
    EXPECT_NE(json.find("synthetic failure 42"), std::string::npos);
    expectKey(json, "cores");
    EXPECT_EQ(check::crashCount(), 1u);

    // The sink ended with its guard: a later error writes nothing.
    {
        ScopedThrowOnError isolate;
        EXPECT_THROW(panic("after the guard"), std::runtime_error);
    }
    check::setCrashSystem(nullptr);
    EXPECT_EQ(slurp(path), json);
    EXPECT_EQ(check::crashCount(), 1u);
    std::remove(path.c_str());
}

TEST(CrashReport, WatchdogAbortLeavesAFullReport)
{
    // The watchdog path end to end: an injected commit stall makes
    // the watchdog fire, and the resulting crash report must name the
    // stall and carry per-core stage occupancy.
    check::activeFaultPlan().parse("stall:200");
    SystemParams sp;
    sp.watchdogCycles = 500;
    System sys(sp);
    check::activeFaultPlan().clear();
    sys.attachTrace(0, generateTrace(tpccProfile(), 50'000));

    const std::string path = tempPath("watchdog_crash.json");
    std::remove(path.c_str());
    const std::string stats = tempPath("watchdog_partial_stats.json");
    std::remove(stats.c_str());
    {
        check::ScopedCrashReporting sink(path, stats, 9);
        ScopedThrowOnError isolate;
        EXPECT_THROW(sys.run(), std::runtime_error);
    }

    const std::string json = slurp(path);
    ASSERT_FALSE(json.empty()) << "crash report was not written";
    EXPECT_NE(json.find("\"count\": 1,"), std::string::npos) << json;
    EXPECT_NE(json.find("no instruction committed"),
              std::string::npos);
    expectKey(json, "occupancy");
    expectKey(json, "window");
    expectKey(json, "stations");
    // The stalled window is full: occupancy must be non-zero, i.e.
    // the report must not claim an idle machine.
    EXPECT_EQ(json.find("\"window\":0,"), std::string::npos);
    // Stamped with the seed the sink was built with.
    EXPECT_NE(json.find("\"seed\":9"), std::string::npos);

    // The partial stats flush happened too.
    const std::string partial = slurp(stats);
    EXPECT_FALSE(partial.empty());
    std::remove(path.c_str());
    std::remove(stats.c_str());
}

TEST(CrashReport, InstallWithEmptyPathUsesTheDefault)
{
    // An empty path means crash_report.json in the working directory;
    // run the crash in a directory of its own so none is left behind.
    std::string dir = tempPath("crash_default_XXXXXX");
    ASSERT_NE(mkdtemp(dir.data()), nullptr);
    char cwd[4096];
    ASSERT_NE(getcwd(cwd, sizeof cwd), nullptr);
    ASSERT_EQ(chdir(dir.c_str()), 0);

    System sys{SystemParams{}};
    {
        check::ScopedCrashReporting sink("", "",
                                         obs::ObsOptions::kUnset);
        check::setCrashSystem(&sys);
        ScopedThrowOnError isolate;
        EXPECT_THROW(panic("default path"), std::runtime_error);
    }
    check::setCrashSystem(nullptr);
    const std::string json = slurp("crash_report.json");
    std::remove("crash_report.json");
    EXPECT_EQ(chdir(cwd), 0);
    EXPECT_EQ(rmdir(dir.c_str()), 0);

    EXPECT_NE(json.find("\"count\": 1,"), std::string::npos) << json;
    EXPECT_NE(json.find("default path"), std::string::npos) << json;
}

TEST(CrashReport, HookEndsWithTheRun)
{
    // A run's crash sink and stats salvage belong to that run: a
    // machine that dies after PerfModel::run() returned must touch
    // neither of its files.
    const std::string crash = tempPath("hook_ends_crash.json");
    const std::string stats = tempPath("hook_ends_stats.json");
    std::remove(crash.c_str());
    std::remove(stats.c_str());
    obs::ObsOptions run;
    run.crashReportPath = crash;
    run.statsJsonPath = stats;
    PerfModel model(sparc64vBase(), run);
    model.loadWorkload(specint95Profile(), 20'000);
    model.run();
    const std::string before = slurp(stats);
    ASSERT_FALSE(before.empty());

    SystemParams sp = sparc64vBase().sys;
    sp.watchdogCycles = 2; // absurdly tight: fires immediately.
    System sick(sp);
    sick.attachTrace(0, generateTrace(tpccProfile(), 8000));
    std::string sink;
    setLogSink(&sink);
    {
        ScopedThrowOnError isolate;
        EXPECT_THROW(sick.run(), std::runtime_error);
    }
    setLogSink(nullptr);

    EXPECT_FALSE(std::ifstream(crash).good()) << slurp(crash);
    EXPECT_EQ(slurp(stats), before);
    std::remove(crash.c_str());
    std::remove(stats.c_str());
}

TEST(CrashReport, NoStaleMachineAfterAnEarlierRun)
{
    // A finished run's machine stays alive with its PerfModel, but a
    // later run or sweep on the same thread that fails before its own
    // System::run() must not report that machine (it would carry the
    // earlier run's cycle and commits) nor salvage its stats.
    const std::string crash = tempPath("stale_machine_crash.json");
    const std::string first_crash = tempPath("stale_first_crash.json");
    const std::string stats = tempPath("stale_machine_stats.json");
    std::remove(crash.c_str());
    std::remove(first_crash.c_str());
    std::remove(stats.c_str());
    obs::ObsOptions first_run;
    first_run.crashReportPath = first_crash;
    PerfModel first(sparc64vBase(), first_run);
    first.loadWorkload(specint95Profile(), 5000);
    ASSERT_EQ(first.run().instructions, 5000u);

    MachineParams no_bus = sparc64vBase();
    no_bus.sys.mem.bus.bytesPerCycle = 0;
    exp::Sweep sweep;
    sweep.add("no-bus", no_bus, specint95Profile(), 5000);
    exp::SweepOptions opts;
    opts.threads = 1;
    opts.run.crashReportPath = crash;
    std::string sink;
    setLogSink(&sink);
    const std::vector<exp::PointResult> res =
        exp::SweepRunner(opts).run(sweep);
    setLogSink(nullptr);
    ASSERT_EQ(res.size(), 1u);
    EXPECT_FALSE(res[0].ok);
    EXPECT_NE(res[0].error.find("zero bandwidth"), std::string::npos)
        << res[0].error;
    EXPECT_EQ(check::crashCount(), 0u);
    EXPECT_FALSE(std::ifstream(crash).good()) << slurp(crash);

    // A second single run whose prepare() fails salvages nothing into
    // its --stats-json path while the first machine is still alive.
    obs::ObsOptions second_run;
    second_run.crashReportPath = crash;
    second_run.statsJsonPath = stats;
    PerfModel second(no_bus, second_run);
    second.loadWorkload(specint95Profile(), 5000);
    setLogSink(&sink);
    {
        ScopedThrowOnError isolate;
        EXPECT_THROW(second.run(), std::runtime_error);
    }
    setLogSink(nullptr);
    EXPECT_EQ(check::crashCount(), 0u);
    EXPECT_FALSE(std::ifstream(stats).good()) << slurp(stats);
    EXPECT_FALSE(std::ifstream(crash).good()) << slurp(crash);
    std::remove(crash.c_str());
    std::remove(first_crash.c_str());
    std::remove(stats.c_str());
}

} // namespace
} // namespace s64v
