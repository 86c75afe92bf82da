/**
 * @file
 * Robustness tests for the sweep engine's failure-handling paths: the
 * mutex-held crash sink must name every point that died in a
 * parallel sweep, and the run's --seed= must be stamped into stats
 * JSON and crash reports so a run is replayable from its own outputs.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/crash_report.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "exp/sweep.hh"
#include "model/params.hh"
#include "obs/run_obs.hh"
#include "obs/stats_export.hh"
#include "sim/system.hh"
#include "workload/workloads.hh"

namespace s64v
{
namespace
{

constexpr std::size_t kRun = 3000;

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream f(path);
    std::ostringstream out;
    out << f.rdbuf();
    return out.str();
}

TEST(SweepRobustness, ParallelCrashTriageNamesEveryDeadPoint)
{
    const std::string report = tempPath("sweep_triage.json");
    std::remove(report.c_str());

    MachineParams sick = sparc64vBase();
    sick.sys.watchdogCycles = 2;
    exp::Sweep sweep;
    sweep.add("healthy-one", sparc64vBase(), tpccProfile(), kRun);
    sweep.add("sick-alpha", sick, tpccProfile(), kRun);
    sweep.add("sick-beta", sick, specint95Profile(), kRun);
    sweep.add("healthy-two", sparc64vBase(), specint95Profile(), kRun);

    exp::SweepOptions opts;
    opts.threads = 4;
    opts.run.crashReportPath = report;
    opts.run.seed = 42;
    const auto results = exp::SweepRunner(opts).run(sweep);

    ASSERT_EQ(results.size(), 4u);
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_FALSE(results[1].ok);
    EXPECT_FALSE(results[2].ok);
    EXPECT_TRUE(results[3].ok) << results[3].error;

    // Both crashes survive in one aggregated document — neither
    // writer clobbered the other.
    EXPECT_EQ(check::crashCount(), 2u);
    const std::string doc = slurp(report);
    EXPECT_NE(doc.find("s64v-crash-triage-1"), std::string::npos)
        << doc;
    EXPECT_NE(doc.find("\"count\": 2"), std::string::npos) << doc;
    EXPECT_NE(doc.find("sick-alpha"), std::string::npos);
    EXPECT_NE(doc.find("sick-beta"), std::string::npos);
    EXPECT_EQ(doc.find("healthy-one"), std::string::npos);
    // Every entry carries the sweep's run seed.
    EXPECT_NE(doc.find("\"seed\":42"), std::string::npos) << doc;
    std::remove(report.c_str());
}

TEST(SweepRobustness, SeedIsStampedInStatsAndCrashReports)
{
    constexpr std::uint64_t kUnset = obs::ObsOptions::kUnset;

    // Unset: workload seeds pass through untouched, no stamp.
    EXPECT_EQ(obs::effectiveWorkloadSeed(kUnset, 7), 7u);

    // Set: every derived stream re-keys, deterministically.
    EXPECT_NE(obs::effectiveWorkloadSeed(42, 7), 7u);
    EXPECT_EQ(obs::effectiveWorkloadSeed(42, 7),
              obs::effectiveWorkloadSeed(42, 7));
    EXPECT_NE(obs::effectiveWorkloadSeed(42, 7),
              obs::effectiveWorkloadSeed(42, 8));

    // Stats JSON carries the seed in its "run" object.
    stats::Group root("sim");
    root.scalar("x", "a counter");
    SimResult res;
    const std::string stats = obs::exportStatsJson(root, &res, 42);
    EXPECT_NE(stats.find("\"seed\":42"), std::string::npos) << stats;
    EXPECT_EQ(obs::exportStatsJson(root, &res).find("\"seed\""),
              std::string::npos);

    // And so does a crash report for a dying system.
    System sys(sparc64vBase().sys);
    const std::string crash =
        check::buildCrashReportJson(sys, "panic", "boom", 42);
    EXPECT_NE(crash.find("\"seed\":42"), std::string::npos) << crash;
    EXPECT_NE(crash.find("\"message\":\"boom\""), std::string::npos)
        << crash;
    EXPECT_EQ(check::buildCrashReportJson(sys, "panic", "boom")
                  .find("\"seed\""),
              std::string::npos);
}

} // namespace
} // namespace s64v
