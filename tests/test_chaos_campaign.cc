/**
 * @file
 * Tests for the campaign driver and failure triage (chaos/campaign.hh,
 * chaos/triage.hh). The centrepiece is the seeded-defect mutation
 * test: a campaign pointed at a build with the deliberate defect
 * armed must detect it, shrink it to a minimal reproducer (no config
 * deltas — the defect lives in the base model), and write a
 * chaos_report.json whose replay command pins the failure down.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "chaos/campaign.hh"
#include "chaos/seeded_bug.hh"
#include "common/logging.hh"

namespace s64v::chaos
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
    std::ifstream f(path);
    std::ostringstream out;
    out << f.rdbuf();
    return out.str();
}

/** Force the seeded defect on/off for one test, whatever the build
 *  flag or environment says. */
class ScopedSeededBug
{
  public:
    explicit ScopedSeededBug(bool armed) { setSeededBug(armed); }
    ~ScopedSeededBug() { setSeededBug(false); }
};

/** Fast in-process invariant subset for campaign-mechanics tests. */
CampaignOptions
fastOptions(const char *report_name)
{
    CampaignOptions opts;
    opts.seed = 7;
    opts.points = 4;
    opts.invariants = "cache-mono,issue-mono";
    opts.reportPath = tempPath(report_name);
    return opts;
}

TEST(ChaosCampaign, CleanOnAHealthyBuild)
{
    ScopedSeededBug healthy(false);
    const CampaignOptions opts = fastOptions("clean.json");
    const CampaignSummary summary = runChaosCampaign(opts);
    EXPECT_EQ(summary.pointsRun, 4u);
    EXPECT_EQ(summary.checksRun, 8u); // 4 points x 2 invariants.
    EXPECT_EQ(summary.violations, 0u);
    EXPECT_TRUE(summary.failures.empty());

    // A clean campaign still documents itself.
    const std::string report = slurp(opts.reportPath);
    EXPECT_NE(report.find("\"schema\":\"s64v-chaos-1\""),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("\"violations\":0"), std::string::npos);
    std::remove(opts.reportPath.c_str());
}

// The seeded-defect mutation test: proves the whole detect -> shrink
// -> triage -> report pipeline on a build that is known to be broken
// (the seeded defect, armed here with setSeededBug).
TEST(ChaosCampaign, SeededDefectIsCaughtShrunkAndTriaged)
{
    ScopedSeededBug armed(true);
    CampaignOptions opts = fastOptions("seeded.json");
    opts.invariants = "cache-mono";
    opts.points = 6;
    const CampaignSummary summary = runChaosCampaign(opts);

    // Caught: the defect fires on most points, and every occurrence
    // folds into the one triage bucket.
    ASSERT_EQ(summary.failures.size(), 1u);
    const ChaosFailure &f = summary.failures[0];
    EXPECT_EQ(f.invariant, "cache-mono");
    EXPECT_EQ(f.signature, "cache-mono:miss-increase");
    EXPECT_GE(f.occurrences, 2u);
    EXPECT_EQ(summary.violations, f.occurrences);

    // Shrunk: the defect needs no configuration delta at all, so the
    // minimized reproducer must carry at most a few — and in
    // practice none.
    EXPECT_TRUE(f.reproduced);
    EXPECT_LE(f.shrunk.activeDeltaNames().size(), 3u);
    EXPECT_EQ(f.shrunk.activeCount(), 0u);
    EXPECT_GE(f.shrinkChecks, 1u);

    // Reported: schema, detail, and a replay command that names the
    // seed, the point, and the invariant.
    const std::string report = slurp(opts.reportPath);
    EXPECT_NE(report.find("\"schema\":\"s64v-chaos-1\""),
              std::string::npos);
    EXPECT_NE(report.find("\"seed\":7"), std::string::npos);
    EXPECT_NE(report.find("cache-mono:miss-increase"),
              std::string::npos);
    EXPECT_NE(
        report.find("bench/chaos_campaign --seed=7 --replay="),
        std::string::npos)
        << report;
    std::remove(opts.reportPath.c_str());
}

TEST(ChaosCampaign, ReplayModeRerunsExactlyOnePoint)
{
    ScopedSeededBug armed(true);
    CampaignOptions first = fastOptions("first.json");
    first.invariants = "cache-mono";
    const CampaignSummary found = runChaosCampaign(first);
    ASSERT_FALSE(found.failures.empty());
    const std::size_t index = found.failures[0].firstPoint;

    // Replaying the reported index reproduces the same signature.
    CampaignOptions replay = fastOptions("replay.json");
    replay.invariants = "cache-mono";
    replay.replay = true;
    replay.replayIndex = index;
    const CampaignSummary again = runChaosCampaign(replay);
    EXPECT_EQ(again.pointsRun, 1u);
    ASSERT_EQ(again.failures.size(), 1u);
    EXPECT_EQ(again.failures[0].signature,
              found.failures[0].signature);
    std::remove(first.reportPath.c_str());
    std::remove(replay.reportPath.c_str());
}

TEST(ChaosCampaign, MinuteBudgetStopsTheLoop)
{
    ScopedSeededBug healthy(false);
    CampaignOptions opts = fastOptions("timed.json");
    opts.points = 0;          // unlimited points...
    opts.minutes = 1e-9;      // ...but no time at all.
    const CampaignSummary summary = runChaosCampaign(opts);
    EXPECT_TRUE(summary.timedOut);
    EXPECT_EQ(summary.pointsRun, 0u);
    std::remove(opts.reportPath.c_str());
}

TEST(ChaosTriage, DedupsBySignatureAndKeepsTheFirstReproducer)
{
    ChaosTriage triage(7);
    const Violation a{"cache-mono", "cache-mono:miss-increase", "A"};
    const Violation b{"cache-mono", "cache-mono:miss-increase", "B"};
    const Violation c{"storm", "storm:stall:hang", "C"};

    ShrinkResult firstHit;
    firstHit.point.index = 3;
    firstHit.reproduced = true;
    firstHit.violation = a;

    EXPECT_FALSE(triage.known(a));
    EXPECT_TRUE(triage.record(a, firstHit));
    EXPECT_TRUE(triage.known(a));
    EXPECT_TRUE(triage.known(b)); // same bucket.
    EXPECT_FALSE(triage.record(b, ShrinkResult{}));
    EXPECT_TRUE(triage.record(c, ShrinkResult{}));

    ASSERT_EQ(triage.failures().size(), 2u);
    EXPECT_EQ(triage.totalViolations(), 3u);
    EXPECT_EQ(triage.failures()[0].occurrences, 2u);
    EXPECT_EQ(triage.failures()[0].firstPoint, 3u);
    EXPECT_EQ(triage.replayCommand(triage.failures()[0]),
              "bench/chaos_campaign --seed=7 --replay=3 "
              "--invariants=cache-mono");
}

TEST(ChaosTriage, ReportRendersEveryBucket)
{
    ChaosTriage triage(42);
    ShrinkResult hit;
    hit.point.index = 1;
    hit.point.workload = "tpcc";
    hit.point.numCpus = 2;
    hit.point.instrs = 1234;
    hit.reproduced = true;
    hit.violation = {"warmup-band", "warmup-band:out-of-band", "d"};
    triage.record(hit.violation, hit);

    const std::string json = triage.toJson(10);
    EXPECT_NE(json.find("\"schema\":\"s64v-chaos-1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"seed\":42"), std::string::npos);
    EXPECT_NE(json.find("\"points\":10"), std::string::npos);
    EXPECT_NE(json.find("\"workload\":\"tpcc\""), std::string::npos);
    EXPECT_NE(json.find("\"instrs\":1234"), std::string::npos);
    EXPECT_NE(json.find("--replay=1"), std::string::npos);
}

} // namespace
} // namespace s64v::chaos
