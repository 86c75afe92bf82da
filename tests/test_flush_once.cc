/**
 * @file
 * Exactly-once flush semantics of the end-of-run observer paths: the
 * final interval sample and the Chrome-trace file write must each
 * happen exactly once whether the run drains, hits the cycle cap, or
 * is stopped early — and never twice when the end lands exactly on a
 * sample boundary.
 */

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "check/signals.hh"
#include "common/stats.hh"
#include "model/params.hh"
#include "model/perf_model.hh"
#include "obs/run_obs.hh"
#include "obs/sampler.hh"
#include "sim/clocked.hh"
#include "sim/system.hh"
#include "workload/generator.hh"
#include "workload/workloads.hh"

#include "json_checker.hh"

namespace s64v
{
namespace
{

using testutil::JsonChecker;

std::size_t
countLines(const std::string &text)
{
    std::istringstream in(text);
    std::string line;
    std::size_t n = 0;
    while (std::getline(in, line))
        ++n;
    return n;
}

std::size_t
countOccurrences(const std::string &text, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t at = text.find(needle);
         at != std::string::npos; at = text.find(needle, at + 1))
        ++n;
    return n;
}

TEST(FlushOnce, BoundaryExactFinishDoesNotDuplicateSample)
{
    stats::Group root("sim");
    stats::Scalar &work = root.scalar("work", "units");
    obs::IntervalSampler sampler(root, 10);
    std::ostringstream out;
    sampler.setOutput(&out);

    work += 5;
    sampler.tick(10, 5);
    // The run drains exactly on the period boundary: the final flush
    // must not emit the interval a second time.
    sampler.finish(10, 5);
    EXPECT_EQ(sampler.samples(), 1u);
    EXPECT_EQ(countLines(out.str()), 1u);
}

TEST(FlushOnce, EarlyStopEmitsFinalSampleExactlyOnce)
{
    check::clearStopRequest();
    stats::Group root("sim");
    stats::Scalar &work = root.scalar("work", "units");
    obs::IntervalSampler sampler(root, 10);
    std::ostringstream out;
    sampler.setOutput(&out);

    // Mirror System::run()'s wiring on a bare kernel so the stop can
    // be requested at a mid-interval cycle deterministically.
    class Spinner : public Clocked
    {
      public:
        explicit Spinner(stats::Scalar &s) : s_(s) {}
        void tick(Cycle) override { s_ += 1; }
        bool done() const override { return false; }

      private:
        stats::Scalar &s_;
    };
    Spinner spinner(work);

    CycleKernel kernel;
    kernel.attach(&spinner);
    kernel.attachProbe(10, 10, [&](Cycle cycle) {
        sampler.tick(cycle, work.value());
        return true;
    });
    kernel.attachProbe(25, 1, [](Cycle) {
        check::requestStop();
        return false;
    });
    const CycleKernel::Outcome out_c = kernel.run(1000);
    EXPECT_EQ(out_c.stop, CycleKernel::Stop::Interrupted);
    EXPECT_EQ(out_c.cycle, 25u);
    sampler.finish(out_c.cycle, work.value());
    check::clearStopRequest();

    // Samples at cycles 10 and 20, plus exactly one partial interval
    // covering [20, 25) emitted by the final flush.
    EXPECT_EQ(sampler.samples(), 3u);
    EXPECT_EQ(countLines(out.str()), 3u);
    EXPECT_NE(out.str().find("\"interval_cycles\":5"),
              std::string::npos);
}

TEST(FlushOnce, PendingStopAtCycleZeroEmitsNoSample)
{
    check::clearStopRequest();
    System sys(SystemParams{});
    sys.attachTrace(0, generateTrace(specint95Profile(), 5000));
    obs::IntervalSampler sampler(sys.root(), 10);
    std::ostringstream out;
    sampler.setOutput(&out);
    sys.attachSampler(&sampler);

    check::requestStop();
    const SimResult res = sys.run();
    check::clearStopRequest();
    EXPECT_TRUE(res.interrupted);
    // The run never advanced past cycle 0: no interval completed and
    // the final flush must not invent an empty record.
    EXPECT_EQ(sampler.samples(), 0u);
    EXPECT_EQ(out.str(), "");
}

TEST(FlushOnce, CycleCapEmitsEachSampleAndTheFinalFlushOnce)
{
    SystemParams sp;
    sp.maxCycles = 50;
    System sys(sp);
    sys.attachTrace(0, generateTrace(specint95Profile(), 50000));
    obs::IntervalSampler sampler(sys.root(), 10);
    std::ostringstream out;
    sampler.setOutput(&out);
    sys.attachSampler(&sampler);

    const SimResult res = sys.run();
    EXPECT_TRUE(res.hitCycleCap);
    // Boundary samples at 10..40 and exactly one final flush at the
    // cap cycle 50.
    EXPECT_EQ(sampler.samples(), 5u);
    EXPECT_EQ(countLines(out.str()), 5u);
}

TEST(FlushOnce, TraceFileWrittenOnceOnCycleCapExit)
{
    const std::string path = ::testing::TempDir() + "cap_trace.json";
    obs::ObsOptions run;
    run.traceOutPath = path;

    MachineParams m = sparc64vBase();
    m.sys.maxCycles = 200;
    PerfModel model(m, run);
    model.loadWorkload(specint95Profile(), 50000);
    const SimResult res = model.run();
    EXPECT_TRUE(res.hitCycleCap);

    std::ifstream f(path);
    ASSERT_TRUE(f.good());
    std::stringstream ss;
    ss << f.rdbuf();
    const std::string doc = ss.str();
    EXPECT_TRUE(JsonChecker(doc).valid());
    // One flush: one trace_events document, not a concatenation.
    EXPECT_EQ(countOccurrences(doc, "\"traceEvents\""), 1u);
    std::remove(path.c_str());
}

TEST(FlushOnce, TraceFileWrittenOnceOnEarlyStopExit)
{
    check::clearStopRequest();
    const std::string path = ::testing::TempDir() + "stop_trace.json";
    obs::ObsOptions run;
    run.traceOutPath = path;

    PerfModel model(sparc64vBase(), run);
    model.loadWorkload(specint95Profile(), 50000);
    check::requestStop();
    const SimResult res = model.run();
    check::clearStopRequest();
    EXPECT_TRUE(res.interrupted);

    std::ifstream f(path);
    ASSERT_TRUE(f.good());
    std::stringstream ss;
    ss << f.rdbuf();
    const std::string doc = ss.str();
    EXPECT_TRUE(JsonChecker(doc).valid());
    EXPECT_EQ(countOccurrences(doc, "\"traceEvents\""), 1u);
    std::remove(path.c_str());
}

} // namespace
} // namespace s64v
