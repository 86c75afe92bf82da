#include "check/crash_report.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "check/fault_inject.hh"
#include "common/logging.hh"
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
    check::setCrashSystem(&sys);
    const std::string path = tempPath("hooked_crash.json");
    std::remove(path.c_str());
    check::installCrashReporting(path, "", obs::ObsOptions::kUnset);

    setThrowOnError(true);
    EXPECT_THROW(panic("synthetic failure %d", 42),
                 std::runtime_error);
    setThrowOnError(false);
    check::uninstallCrashReporting();
    check::setCrashSystem(nullptr);

    const std::string json = slurp(path);
    ASSERT_FALSE(json.empty()) << "crash report was not written";
    EXPECT_NE(json.find("synthetic failure 42"), std::string::npos);
    expectKey(json, "cores");
}

TEST(CrashReport, WatchdogAbortLeavesAFullReport)
{
    // The ISSUE acceptance path: an injected commit stall makes the
    // watchdog fire, and the resulting crash report must name the
    // stall cycle and carry per-core stage occupancy.
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
    check::installCrashReporting(path, stats, 9);

    setThrowOnError(true);
    EXPECT_THROW(sys.run(), std::runtime_error);
    setThrowOnError(false);
    check::uninstallCrashReporting();

    const std::string json = slurp(path);
    ASSERT_FALSE(json.empty()) << "crash report was not written";
    EXPECT_NE(json.find("no instruction committed"),
              std::string::npos);
    expectKey(json, "occupancy");
    expectKey(json, "window");
    expectKey(json, "stations");
    // The stalled window is full: occupancy must be non-zero, i.e.
    // the report must not claim an idle machine.
    EXPECT_EQ(json.find("\"window\":0,"), std::string::npos);
    // Stamped with the seed the hook was installed with.
    EXPECT_NE(json.find("\"seed\":9"), std::string::npos);

    // The partial stats flush happened too.
    const std::string partial = slurp(stats);
    EXPECT_FALSE(partial.empty());
}

TEST(CrashReport, InstallWithEmptyPathUsesTheDefault)
{
    // Exercised only for the install/uninstall path; no crash is
    // raised, so no file appears.
    check::installCrashReporting("", "", obs::ObsOptions::kUnset);
    check::uninstallCrashReporting();
}

} // namespace
} // namespace s64v
