/**
 * @file
 * Robustness tests for the sweep engine's failure-handling paths: the
 * mutex-held triage sink must name every point that died in a
 * parallel sweep, and the process-wide --seed= must be stamped into
 * stats JSON and crash reports so a run is replayable from its own
 * outputs.
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

/** Save and restore the process-wide observability options. */
class ScopedObsOptions
{
  public:
    ScopedObsOptions() : saved_(obs::runObsOptions()) {}
    ~ScopedObsOptions() { obs::runObsOptions() = saved_; }

  private:
    obs::ObsOptions saved_;
};

TEST(SweepRobustness, ParallelCrashTriageNamesEveryDeadPoint)
{
    ScopedObsOptions restore;
    const std::string report = tempPath("sweep_triage.json");
    std::remove(report.c_str());
    obs::runObsOptions().crashReportPath = report;

    MachineParams sick = sparc64vBase();
    sick.sys.watchdogCycles = 2;
    exp::Sweep sweep;
    sweep.add("healthy-one", sparc64vBase(), tpccProfile(), kRun);
    sweep.add("sick-alpha", sick, tpccProfile(), kRun);
    sweep.add("sick-beta", sick, specint95Profile(), kRun);
    sweep.add("healthy-two", sparc64vBase(), specint95Profile(), kRun);

    exp::SweepOptions opts;
    opts.threads = 4;
    const auto results = exp::SweepRunner(opts).run(sweep);

    ASSERT_EQ(results.size(), 4u);
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_FALSE(results[1].ok);
    EXPECT_FALSE(results[2].ok);
    EXPECT_TRUE(results[3].ok) << results[3].error;

    // Both crashes survive in one aggregated document — neither
    // writer clobbered the other.
    EXPECT_EQ(check::sweepCrashCount(), 2u);
    const std::string doc = slurp(report);
    EXPECT_NE(doc.find("s64v-crash-triage-1"), std::string::npos)
        << doc;
    EXPECT_NE(doc.find("\"count\": 2"), std::string::npos) << doc;
    EXPECT_NE(doc.find("sick-alpha"), std::string::npos);
    EXPECT_NE(doc.find("sick-beta"), std::string::npos);
    EXPECT_EQ(doc.find("healthy-one"), std::string::npos);
    std::remove(report.c_str());
}

TEST(SweepRobustness, SeedIsStampedInStatsAndCrashReports)
{
    ScopedObsOptions restore;

    // Unset: workload seeds pass through untouched, no stamp.
    obs::runObsOptions() = obs::ObsOptions{};
    EXPECT_FALSE(obs::globalSeedSet());
    EXPECT_EQ(obs::effectiveWorkloadSeed(7), 7u);

    // Set: every derived stream re-keys, deterministically.
    obs::runObsOptions().seed = 42;
    ASSERT_TRUE(obs::globalSeedSet());
    EXPECT_NE(obs::effectiveWorkloadSeed(7), 7u);
    EXPECT_EQ(obs::effectiveWorkloadSeed(7),
              obs::effectiveWorkloadSeed(7));
    EXPECT_NE(obs::effectiveWorkloadSeed(7),
              obs::effectiveWorkloadSeed(8));

    // Stats JSON carries the seed in its "run" object.
    stats::Group root("sim");
    root.scalar("x", "a counter");
    SimResult res;
    const std::string stats = obs::exportStatsJson(root, &res);
    EXPECT_NE(stats.find("\"seed\":42"), std::string::npos) << stats;

    // And so does a crash report for a dying system.
    System sys(sparc64vBase().sys);
    const std::string crash =
        check::buildCrashReportJson(sys, "panic", "boom");
    EXPECT_NE(crash.find("\"seed\":42"), std::string::npos) << crash;
    EXPECT_NE(crash.find("\"message\":\"boom\""), std::string::npos)
        << crash;
}

} // namespace
} // namespace s64v
