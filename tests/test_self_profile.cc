/**
 * @file
 * Simulator self-profiler: sampling behaviour, per-class aggregation,
 * the process-wide merge, the BENCH_selfprofile.json schema, and the
 * end-to-end --self-profile wiring through PerfModel and the sweep
 * runner.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "exp/self_profile.hh"
#include "exp/sweep.hh"
#include "model/params.hh"
#include "model/perf_model.hh"
#include "obs/run_obs.hh"
#include "workload/workloads.hh"

#include "json_checker.hh"

namespace s64v
{
namespace
{

using testutil::JsonChecker;

/** Reset every process-wide knob the tests below touch. */
void
resetGlobals()
{
    exp::resetSelfProfile();
    obs::runObsOptions() = obs::ObsOptions{};
}

TEST(SelfProfiler, SamplesOneCycleInN)
{
    exp::SelfProfiler prof(8);
    unsigned timed = 0;
    for (Cycle c = 0; c < 64; ++c)
        timed += prof.sampleCycle(c) ? 1 : 0;
    EXPECT_EQ(timed, 8u);
    EXPECT_EQ(prof.sampledCycles(), 8u);
    EXPECT_EQ(prof.period(), 8u);

    // Period 0 falls back to the library default.
    exp::SelfProfiler dflt(0);
    EXPECT_EQ(dflt.period(), exp::kDefaultSelfProfilePeriod);
}

TEST(SelfProfiler, AggregatesPerComponentClass)
{
    class Dummy : public Clocked
    {
      public:
        void tick(Cycle) override {}
        bool done() const override { return false; }
        const char *profileClass() const override { return "dummy"; }
    };

    exp::SelfProfiler prof(1);
    Dummy d;
    prof.recordTick(d, 100);
    prof.recordTick(d, 50);
    prof.recordProbes(25);

    const exp::ProfileTotals &t = prof.totals();
    ASSERT_EQ(t.count("dummy"), 1u);
    EXPECT_EQ(t.at("dummy").samples, 2u);
    EXPECT_EQ(t.at("dummy").ns, 150u);
    ASSERT_EQ(t.count("probes"), 1u);
    EXPECT_EQ(t.at("probes").ns, 25u);
}

TEST(SelfProfile, MergeAccumulatesAcrossRuns)
{
    resetGlobals();
    class Dummy : public Clocked
    {
      public:
        void tick(Cycle) override {}
        bool done() const override { return false; }
    };
    Dummy d; // default profileClass() is "clocked".

    exp::SelfProfiler a(4), b(4);
    a.sampleCycle(0);
    a.recordTick(d, 10);
    b.sampleCycle(0);
    b.sampleCycle(4);
    b.recordTick(d, 30);
    exp::mergeSelfProfile(a);
    exp::mergeSelfProfile(b);

    EXPECT_EQ(exp::selfProfileRuns(), 2u);
    EXPECT_EQ(exp::selfProfileSampledCycles(), 3u);
    const exp::ProfileTotals t = exp::selfProfileTotals();
    ASSERT_EQ(t.count("clocked"), 1u);
    EXPECT_EQ(t.at("clocked").ns, 40u);

    exp::resetSelfProfile();
    EXPECT_EQ(exp::selfProfileRuns(), 0u);
    EXPECT_TRUE(exp::selfProfileTotals().empty());
}

TEST(SelfProfile, JsonSchemaHasKeysAndSharesSumToOne)
{
    resetGlobals();
    class Dummy : public Clocked
    {
      public:
        void tick(Cycle) override {}
        bool done() const override { return false; }
        const char *profileClass() const override { return "core"; }
    };
    Dummy d;
    exp::SelfProfiler prof(2);
    prof.sampleCycle(0);
    prof.recordTick(d, 600);
    prof.recordProbes(400);
    exp::mergeSelfProfile(prof);

    const std::string json = exp::renderSelfProfileJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    for (const char *key :
         {"\"sample_period\"", "\"runs\"", "\"sampled_cycles\"",
          "\"sampled_seconds\"", "\"est_total_seconds\"",
          "\"instructions\"", "\"kips\"", "\"classes\"", "\"core\"",
          "\"probes\"", "\"samples\"", "\"seconds\"", "\"share\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
    // 600 of 1000 sampled nanoseconds belong to the core class.
    EXPECT_NE(json.find("\"share\":0.6"), std::string::npos) << json;
    EXPECT_NE(json.find("\"share\":0.4"), std::string::npos) << json;
    resetGlobals();
}

TEST(SelfProfile, WriteRefusesWithoutSamplesAndHonoursPath)
{
    resetGlobals();
    EXPECT_FALSE(exp::writeSelfProfileJson("/tmp/should_not_exist"));

    class Dummy : public Clocked
    {
      public:
        void tick(Cycle) override {}
        bool done() const override { return false; }
    };
    Dummy d;
    exp::SelfProfiler prof(1);
    prof.sampleCycle(0);
    prof.recordTick(d, 5);
    exp::mergeSelfProfile(prof);

    const std::string path =
        ::testing::TempDir() + "selfprofile_test.json";
    ASSERT_TRUE(exp::writeSelfProfileJson(path));
    std::ifstream f(path);
    ASSERT_TRUE(f.good());
    std::stringstream ss;
    ss << f.rdbuf();
    EXPECT_TRUE(JsonChecker(ss.str()).valid());
    std::remove(path.c_str());
    resetGlobals();
}

TEST(SelfProfile, PerfModelRunFeedsAggregate)
{
    resetGlobals();
    obs::runObsOptions().selfProfile = true;
    obs::runObsOptions().selfProfilePeriod = 8;
    ::setenv("S64V_BENCH_DIR", ::testing::TempDir().c_str(), 1);

    PerfModel model(sparc64vBase());
    model.loadWorkload(specint95Profile(), 8000);
    model.run();

    ::unsetenv("S64V_BENCH_DIR");
    EXPECT_EQ(exp::selfProfileRuns(), 1u);
    EXPECT_GT(exp::selfProfileSampledCycles(), 0u);
    const exp::ProfileTotals t = exp::selfProfileTotals();
    // The cores tick under the "core" class; the probe pass is timed
    // under "probes".
    EXPECT_EQ(t.count("core"), 1u);
    EXPECT_EQ(t.count("probes"), 1u);

    // The non-embedded run wrote the JSON to $S64V_BENCH_DIR.
    const std::string path =
        ::testing::TempDir() + "/BENCH_selfprofile.json";
    std::ifstream f(path);
    ASSERT_TRUE(f.good());
    std::stringstream ss;
    ss << f.rdbuf();
    EXPECT_TRUE(JsonChecker(ss.str()).valid());
    std::remove(path.c_str());
    resetGlobals();
}

TEST(SelfProfile, Smp4SharesSumToOne)
{
    // Under the default skip-ahead engine each of the four cores is
    // timed on its own, and cores whose idle ticks are deferred are
    // not timed at all; the per-class shares must still partition
    // the sampled time, with the core class present.
    resetGlobals();
    obs::runObsOptions().selfProfile = true;
    obs::runObsOptions().selfProfilePeriod = 4;
    ::setenv("S64V_BENCH_DIR", ::testing::TempDir().c_str(), 1);

    PerfModel model(sparc64vBase(4));
    model.loadWorkload(tpccProfile(), 6000);
    model.run();
    ::unsetenv("S64V_BENCH_DIR");
    std::remove((::testing::TempDir() + "/BENCH_selfprofile.json")
                    .c_str());

    const exp::ProfileTotals t = exp::selfProfileTotals();
    ASSERT_EQ(t.count("core"), 1u);
    EXPECT_GT(t.at("core").samples, 0u);
    EXPECT_GT(t.at("core").ns, 0u);

    const std::string json = exp::renderSelfProfileJson();
    double share_sum = 0.0;
    std::size_t shares = 0;
    for (std::size_t pos = json.find("\"share\":");
         pos != std::string::npos;
         pos = json.find("\"share\":", pos + 1)) {
        share_sum += std::stod(json.substr(pos + 8));
        ++shares;
    }
    EXPECT_GE(shares, 2u); // at least core + probes.
    // The writer rounds each share; the partition property survives
    // up to that rounding.
    EXPECT_NEAR(share_sum, 1.0, 1e-4);
    resetGlobals();
}

TEST(SelfProfile, SweepPointsMergeConcurrently)
{
    resetGlobals();
    obs::runObsOptions().selfProfile = true;
    ::setenv("S64V_BENCH_DIR", ::testing::TempDir().c_str(), 1);

    exp::Sweep sweep;
    for (int i = 0; i < 4; ++i) {
        sweep.add("p" + std::to_string(i), sparc64vBase(),
                  specint95Profile(), 6000);
    }
    exp::SweepOptions opts;
    opts.threads = 2;
    const std::vector<exp::PointResult> results =
        exp::SweepRunner(opts).run(sweep);
    ::unsetenv("S64V_BENCH_DIR");

    for (const exp::PointResult &r : results)
        EXPECT_TRUE(r.ok) << r.error;
    // Every embedded point merged its per-run profile.
    EXPECT_EQ(exp::selfProfileRuns(), 4u);
    const std::string path =
        ::testing::TempDir() + "/BENCH_selfprofile.json";
    std::ifstream f(path);
    EXPECT_TRUE(f.good());
    std::remove(path.c_str());
    resetGlobals();
}

TEST(SelfProfile, DisabledRunsRecordNothing)
{
    resetGlobals();
    PerfModel model(sparc64vBase());
    model.loadWorkload(specint95Profile(), 5000);
    model.run();
    // No --self-profile: the kernel takes the untimed loop and the
    // aggregate stays empty.
    EXPECT_EQ(exp::selfProfileRuns(), 0u);
    EXPECT_TRUE(exp::selfProfileTotals().empty());
}

} // namespace
} // namespace s64v
