/**
 * @file
 * Tests for the experiment engine (exp/sweep.hh, exp/trace_pool.hh):
 * serial and parallel sweeps must produce identical SimResults point
 * for point, a panicking point must be reported per point without
 * killing the sweep, traces must be shared rather than re-synthesized,
 * the cycle-cap outcome must be surfaced, progress must reach the
 * caller's callback once per point, and the single-run outputs a
 * sweep's run options name (heartbeat included) must not be written.
 * The parallel cases also serve as the TSan workload for the sweep
 * engine (see the "tsan" test preset).
 */

#include <cstdio>
#include <fstream>
#include <iterator>
#include <mutex>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "exp/sweep.hh"
#include "exp/trace_pool.hh"
#include "model/perf_model.hh"
#include "workload/workloads.hh"

namespace s64v
{
namespace
{

constexpr std::size_t kRun = 20000;

/** A small two-workload, two-machine sweep. */
exp::Sweep
smallSweep()
{
    exp::Sweep sweep;
    sweep.add("tpcc/4w", sparc64vBase(), tpccProfile(), kRun);
    sweep.add("tpcc/2w", withIssueWidth(sparc64vBase(), 2),
              tpccProfile(), kRun);
    sweep.add("int/4w", sparc64vBase(), specint2000Profile(), kRun);
    sweep.add("int/2w", withIssueWidth(sparc64vBase(), 2),
              specint2000Profile(), kRun);
    return sweep;
}

TEST(SweepRunner, SerialAndParallelResultsAreIdentical)
{
    const exp::Sweep sweep = smallSweep();

    exp::SweepOptions serial_opts;
    serial_opts.threads = 1;
    const auto serial = exp::SweepRunner(serial_opts).run(sweep);

    exp::SweepOptions parallel_opts;
    parallel_opts.threads = 4;
    const auto parallel = exp::SweepRunner(parallel_opts).run(sweep);

    ASSERT_EQ(serial.size(), sweep.size());
    ASSERT_EQ(parallel.size(), sweep.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_TRUE(serial[i].ok) << serial[i].error;
        EXPECT_TRUE(parallel[i].ok) << parallel[i].error;
        EXPECT_EQ(serial[i].label, parallel[i].label);
        EXPECT_EQ(diffSim(serial[i].sim, parallel[i].sim), "");
    }
}

TEST(SweepRunner, MatchesADirectSingleRun)
{
    // A sweep point must be bit-identical to the plain serial API on
    // the same machine and workload.
    const SimResult direct =
        PerfModel::simulate(sparc64vBase(), tpccProfile(), kRun);

    exp::Sweep sweep;
    sweep.add("tpcc", sparc64vBase(), tpccProfile(), kRun);
    const auto results = exp::SweepRunner().run(sweep);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].ok) << results[0].error;
    EXPECT_EQ(diffSim(results[0].sim, direct), "");
}

TEST(SweepRunner, PanickingPointIsIsolated)
{
    // An absurdly tight watchdog makes one configuration panic
    // mid-run; the sweep must report that point as failed and still
    // finish every other point, serially and in parallel, and its
    // crash document must name the point.
    const std::string report =
        ::testing::TempDir() + "isolated_crash.json";
    for (const unsigned threads : {1u, 4u}) {
        exp::Sweep sweep;
        sweep.add("ok-before", sparc64vBase(), tpccProfile(), kRun);
        MachineParams sick = sparc64vBase();
        sick.sys.watchdogCycles = 2;
        sweep.add("sick", sick, tpccProfile(), kRun);
        sweep.add("ok-after", sparc64vBase(), tpccProfile(), kRun);

        std::remove(report.c_str());
        exp::SweepOptions opts;
        opts.threads = threads;
        opts.run.crashReportPath = report;
        const auto results = exp::SweepRunner(opts).run(sweep);

        ASSERT_EQ(results.size(), 3u);
        EXPECT_TRUE(results[0].ok) << results[0].error;
        EXPECT_FALSE(results[1].ok);
        EXPECT_NE(results[1].error.find("no instruction committed"),
                  std::string::npos)
            << results[1].error;
        EXPECT_TRUE(results[2].ok) << results[2].error;
        EXPECT_EQ(diffSim(results[0].sim, results[2].sim), "");

        std::ifstream in(report);
        const std::string doc((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
        EXPECT_NE(doc.find("\"count\": 1,"), std::string::npos) << doc;
        EXPECT_NE(doc.find("\"label\":\"sick\""), std::string::npos)
            << doc;
    }
    std::remove(report.c_str());
}

TEST(SweepRunner, MetricProbeRunsPerPoint)
{
    exp::Sweep sweep;
    sweep.add("big", sparc64vBase(), tpccProfile(), kRun);
    sweep.add("small", withSmallBht(sparc64vBase()), tpccProfile(),
              kRun);
    sweep.setMetricFn([](PerfModel &model, const SimResult &res,
                         std::map<std::string, double> &metrics) {
        metrics["mispredict"] =
            model.system().core(0).bpred().mispredictRatio();
        metrics["ipc_copy"] = res.ipc;
    });

    const auto results = exp::SweepRunner().run(sweep);
    ASSERT_EQ(results.size(), 2u);
    for (const exp::PointResult &p : results) {
        ASSERT_TRUE(p.ok) << p.error;
        EXPECT_EQ(p.metrics.at("ipc_copy"), p.sim.ipc);
        EXPECT_GT(p.metrics.at("mispredict"), 0.0);
    }
    // The small BHT mispredicts more.
    EXPECT_GT(results[1].metrics.at("mispredict"),
              results[0].metrics.at("mispredict"));
}

TEST(SweepRunner, CycleCapSurfacesInTheResult)
{
    MachineParams capped = sparc64vBase();
    capped.sys.maxCycles = 50; // far too few to drain the trace.
    capped.sys.watchdogCycles = 0;

    exp::Sweep sweep;
    sweep.add("capped", capped, tpccProfile(), kRun);
    const auto results = exp::SweepRunner().run(sweep);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].ok) << results[0].error;
    EXPECT_TRUE(results[0].sim.hitCycleCap);
}

TEST(SweepRunner, EffectiveThreadsClampsToPointCount)
{
    exp::SweepOptions opts;
    opts.threads = 64;
    const exp::SweepRunner runner(opts);
    EXPECT_EQ(runner.effectiveThreads(3), 3u);
    EXPECT_EQ(runner.effectiveThreads(100), 64u);
    EXPECT_EQ(runner.effectiveThreads(0), 1u);
}

TEST(SweepRunner, ProgressCallbackSeesEveryPoint)
{
    struct Call
    {
        std::size_t done;
        std::size_t total;
        double kips;
    };
    std::mutex mutex;
    std::vector<Call> calls;

    exp::SweepOptions opts;
    opts.threads = 2;
    opts.progressFn = [&](std::size_t done, std::size_t total,
                          double agg_kips) {
        std::lock_guard<std::mutex> lock(mutex);
        calls.push_back({done, total, agg_kips});
    };
    const auto results = exp::SweepRunner(opts).run(smallSweep());
    ASSERT_EQ(results.size(), 4u);

    // One call per point, in the order the points finished: done
    // counts up, and the last call reports the full sweep with a
    // positive aggregate speed.
    ASSERT_EQ(calls.size(), 4u);
    for (std::size_t k = 0; k < calls.size(); ++k) {
        EXPECT_EQ(calls[k].done, k + 1);
        EXPECT_EQ(calls[k].total, 4u);
        EXPECT_GE(calls[k].kips, 0.0);
    }
    EXPECT_GT(calls.back().kips, 0.0);
}

TEST(SweepRunner, IgnoresSingleRunOutputs)
{
    // Single-run outputs would collide across concurrent points: a
    // sweep applies the run options that concern a sweep and ignores
    // the recording, checkpoint and restore ones.
    const std::string dir = ::testing::TempDir();
    exp::SweepOptions opts;
    opts.threads = 2;
    opts.run.statsJsonPath = dir + "sweep_out.json";
    opts.run.traceOutPath = dir + "sweep_out.trace.json";
    opts.run.sampleOutPath = dir + "sweep_out.samples.jsonl";
    opts.run.samplePeriod = 500;
    opts.run.heartbeatPeriod = 500;
    opts.run.pipeviewOutPath = dir + "sweep_out.pipeview.txt";
    opts.run.checkpointAt = 500;
    opts.run.checkpointOut = dir + "sweep_out.ckpt";
    opts.run.checkpointStop = true;
    opts.run.restorePath = dir + "sweep_out.absent.ckpt";
    const std::string outputs[] = {
        opts.run.statsJsonPath,   opts.run.traceOutPath,
        opts.run.sampleOutPath,   opts.run.pipeviewOutPath,
        opts.run.checkpointOut,
    };
    for (const std::string &path : outputs)
        std::remove(path.c_str());

    std::string sink;
    setLogSink(&sink);
    const auto recorded = exp::SweepRunner(opts).run(smallSweep());
    setLogSink(nullptr);
    exp::SweepOptions plain;
    plain.threads = 2;
    const auto reference = exp::SweepRunner(plain).run(smallSweep());

    ASSERT_EQ(recorded.size(), reference.size());
    for (std::size_t i = 0; i < recorded.size(); ++i) {
        ASSERT_TRUE(recorded[i].ok) << recorded[i].error;
        ASSERT_TRUE(reference[i].ok) << reference[i].error;
        EXPECT_FALSE(recorded[i].sim.stoppedAtCheckpoint);
        EXPECT_EQ(diffSim(recorded[i].sim, reference[i].sim), "");
    }
    for (const std::string &path : outputs)
        EXPECT_FALSE(std::ifstream(path).good()) << path;
    EXPECT_EQ(sink.find("heartbeat"), std::string::npos) << sink;
}

TEST(TracePool, SynthesizesEachDistinctWorkloadOnce)
{
    exp::TracePool pool;
    const auto &a = pool.acquire(tpccProfile(), 1, 5000);
    const auto &b = pool.acquire(tpccProfile(), 1, 5000);
    EXPECT_EQ(pool.setsSynthesized(), 1u);
    ASSERT_EQ(a.size(), 1u);
    // Same shared_ptr, not merely an equal trace.
    EXPECT_EQ(a[0].get(), b[0].get());

    pool.acquire(specint2000Profile(), 1, 5000);
    pool.acquire(tpccProfile(), 2, 5000);
    pool.acquire(tpccProfile(), 1, 6000);
    EXPECT_EQ(pool.setsSynthesized(), 4u);
}

TEST(TracePool, SweepPointsShareOneTrace)
{
    // Two models over the same workload must reference one immutable
    // trace: the use_count of the pooled pointer rises while systems
    // hold it.
    exp::TracePool pool;
    const auto &set = pool.acquire(tpccProfile(), 1, 5000);
    const long before = set[0].use_count();

    PerfModel a(sparc64vBase());
    a.loadTrace(0, set[0]);
    a.prepare();
    PerfModel b(sparc64vBase());
    b.loadTrace(0, set[0]);
    b.prepare();
    EXPECT_GT(set[0].use_count(), before);
}

} // namespace
} // namespace s64v
