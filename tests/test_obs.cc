/**
 * @file
 * Observability layer: JSON writer/escaping, stats export, interval
 * sampling, Chrome trace export, heartbeat, and the run-option parser.
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/stats.hh"
#include "model/perf_model.hh"
#include "obs/chrome_trace.hh"
#include "obs/heartbeat.hh"
#include "obs/json.hh"
#include "obs/run_obs.hh"
#include "obs/sampler.hh"
#include "obs/stats_export.hh"
#include "workload/workloads.hh"

#include "json_checker.hh"

namespace s64v
{
namespace
{

using testutil::JsonChecker;

TEST(Json, EscapesSpecialCharacters)
{
    EXPECT_EQ(obs::escapeJson("plain"), "plain");
    EXPECT_EQ(obs::escapeJson("a\"b"), "a\\\"b");
    EXPECT_EQ(obs::escapeJson("back\\slash"), "back\\\\slash");
    EXPECT_EQ(obs::escapeJson("line\nbreak"), "line\\nbreak");
    EXPECT_EQ(obs::escapeJson("tab\there"), "tab\\there");
    EXPECT_EQ(obs::escapeJson(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, WriterNestsAndCommas)
{
    obs::JsonWriter w;
    w.beginObject();
    w.field("a", std::uint64_t{1});
    w.field("b", "two");
    w.beginArray("c");
    w.value(std::uint64_t{3});
    w.value("four");
    w.beginObject();
    w.field("d", true);
    w.end();
    w.end();
    w.beginObject("e");
    w.end();
    w.end();
    EXPECT_EQ(w.str(),
              "{\"a\":1,\"b\":\"two\",\"c\":[3,\"four\","
              "{\"d\":true}],\"e\":{}}");
    EXPECT_TRUE(JsonChecker(w.str()).valid());
}

TEST(Json, WriterRawSplice)
{
    obs::JsonWriter w;
    w.beginObject();
    w.raw("args", "{\"x\":1}");
    w.end();
    EXPECT_EQ(w.str(), "{\"args\":{\"x\":1}}");
}

TEST(Json, WriterEscapesKeysAndValues)
{
    obs::JsonWriter w;
    w.beginObject();
    w.field("he said \"hi\"", "a,b\nc");
    w.end();
    EXPECT_TRUE(JsonChecker(w.str()).valid());
    EXPECT_NE(w.str().find("\\\"hi\\\""), std::string::npos);
    EXPECT_NE(w.str().find("a,b\\nc"), std::string::npos);
}

TEST(Json, StrPanicsWithOpenContainer)
{
    setThrowOnError(true);
    obs::JsonWriter w;
    w.beginObject();
    EXPECT_THROW(w.str(), std::runtime_error);
    setThrowOnError(false);
}

TEST(StatsExport, RoundTripsNestedGroups)
{
    stats::Group root("sim");
    stats::Group cpu("cpu0", &root);
    stats::Scalar &commits = cpu.scalar("commits", "instructions");
    commits += 7;
    cpu.formula("ipc", "per cycle", [] { return 1.25; });
    cpu.distribution("lat", "load latency").sample(4.0, 2);
    stats::Histogram &h =
        cpu.histogram("occ", "window occupancy", 0.0, 8.0, 4);
    h.sample(3.0, 5);
    h.sample(-1.0);
    h.sample(9.0);

    const std::string json = obs::exportStatsJson(root);
    EXPECT_TRUE(JsonChecker(json).valid()) << json;

    EXPECT_NE(json.find("\"name\":\"sim\""), std::string::npos);
    EXPECT_NE(json.find("\"path\":\"sim.cpu0\""), std::string::npos);
    EXPECT_NE(json.find("\"commits\""), std::string::npos);
    EXPECT_NE(json.find("\"type\":\"scalar\""), std::string::npos);
    EXPECT_NE(json.find("\"value\":7"), std::string::npos);
    EXPECT_NE(json.find("\"type\":\"formula\""), std::string::npos);
    EXPECT_NE(json.find("1.25"), std::string::npos);
    EXPECT_NE(json.find("\"type\":\"distribution\""),
              std::string::npos);
    EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
    EXPECT_NE(json.find("\"buckets\":[0,5,0,0]"), std::string::npos);
    EXPECT_NE(json.find("\"underflow\":1"), std::string::npos);
    EXPECT_NE(json.find("\"overflow\":1"), std::string::npos);
}

TEST(StatsExport, EscapesDescriptions)
{
    stats::Group root("sim");
    root.scalar("s", "counts \"quoted\" things,\nwith newlines");
    const std::string json = obs::exportStatsJson(root);
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
    EXPECT_NE(json.find("\\n"), std::string::npos);
}

TEST(StatsExport, WriteStatsJsonFailsGracefully)
{
    std::string sink;
    setLogSink(&sink);
    stats::Group root("sim");
    EXPECT_FALSE(
        obs::writeStatsJson(root, "/nonexistent-dir/out.json"));
    setLogSink(nullptr);
    EXPECT_NE(sink.find("warn"), std::string::npos);
}

TEST(Sampler, EmitsPerIntervalDeltas)
{
    stats::Group root("sim");
    stats::Scalar &work = root.scalar("work", "units");
    stats::Scalar &idle = root.scalar("idle", "never moves");
    (void)idle;

    obs::IntervalSampler sampler(root, 10);
    std::ostringstream out;
    sampler.setOutput(&out);

    work += 4;
    sampler.tick(10, 4);   // boundary: record 1
    sampler.tick(15, 6);   // not a boundary
    work += 6;
    sampler.tick(20, 10);  // boundary: record 2
    work += 1;
    sampler.finish(25, 11); // partial final interval: record 3

    EXPECT_EQ(sampler.samples(), 3u);
    std::istringstream lines(out.str());
    std::string line;
    std::vector<std::string> records;
    while (std::getline(lines, line))
        records.push_back(line);
    ASSERT_EQ(records.size(), 3u);
    for (const std::string &r : records)
        EXPECT_TRUE(JsonChecker(r).valid()) << r;

    EXPECT_NE(records[0].find("\"cycle\":10"), std::string::npos);
    EXPECT_NE(records[0].find("\"sim.work\":4"), std::string::npos);
    EXPECT_NE(records[0].find("\"ipc\":0.4"), std::string::npos);
    EXPECT_NE(records[1].find("\"sim.work\":6"), std::string::npos);
    EXPECT_NE(records[1].find("\"ipc\":0.6"), std::string::npos);
    EXPECT_NE(records[2].find("\"interval_cycles\":5"),
              std::string::npos);
    // Unchanged counters are omitted from the deltas.
    EXPECT_EQ(records[0].find("sim.idle"), std::string::npos);
}

TEST(Sampler, ToleratesWarmupReset)
{
    stats::Group root("sim");
    stats::Scalar &work = root.scalar("work", "units");

    obs::IntervalSampler sampler(root, 10);
    std::ostringstream out;
    sampler.setOutput(&out);

    work += 8;
    sampler.tick(10, 8);
    root.resetAll(); // warm-up boundary rewinds every counter.
    work += 3;
    sampler.tick(20, 3);

    std::istringstream lines(out.str());
    std::string line;
    std::getline(lines, line);
    std::getline(lines, line);
    // After the reset the delta restarts from the new absolute value.
    EXPECT_NE(line.find("\"sim.work\":3"), std::string::npos);
}

TEST(ChromeTrace, RendersValidDocument)
{
    obs::ChromeTraceWriter tw(/*lane_slots=*/1);
    const unsigned tid =
        tw.track(obs::ChromeTraceWriter::kMemPid, "bus.data");
    tw.span(obs::ChromeTraceWriter::kMemPid, tid, "xfer", "bus",
            100, 108);

    PipeRecord rec;
    rec.seq = 3;
    rec.pc = 0x4000;
    rec.cls = InstrClass::IntAlu;
    rec.issue = 10;
    rec.dispatch = 11;
    rec.execute = 12;
    rec.complete = 13;
    rec.commit = 14;
    tw.addPipeRecord(0, rec);

    const std::string doc = tw.render();
    EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(doc.find("\"bus.data\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(doc.find("\"seq\":3"), std::string::npos);
    EXPECT_NE(doc.find("0x4000"), std::string::npos);
    EXPECT_NE(doc.find("\"exec\""), std::string::npos);
}

/** The ts, dur and cat of every complete event in a Chrome trace. */
struct XEvent
{
    std::uint64_t ts;
    std::uint64_t dur;
    std::string cat;
};

std::vector<XEvent>
completeEvents(const std::string &doc)
{
    const std::string key = "{\"ph\":\"X\"";
    std::vector<XEvent> out;
    for (std::size_t at = doc.find(key); at != std::string::npos;) {
        const std::size_t next = doc.find(key, at + 1);
        const std::string ev = doc.substr(at, next - at);
        const std::size_t cat = ev.find("\"cat\":\"") + 7;
        out.push_back({std::stoull(ev.substr(ev.find("\"ts\":") + 5)),
                       std::stoull(ev.substr(ev.find("\"dur\":") + 6)),
                       ev.substr(cat, ev.find('"', cat) - cat)});
        at = next;
    }
    return out;
}

TEST(ChromeTrace, MemorySpansKeepTheLanesWindow)
{
    // One lane slot: a ring of kSpansPerLaneSlot memory spans.
    obs::ChromeTraceWriter tw(/*lane_slots=*/1);
    ASSERT_EQ(obs::ChromeTraceWriter::kSpansPerLaneSlot, 4u);
    const unsigned a = tw.track(obs::ChromeTraceWriter::kMemPid, "t");
    EXPECT_EQ(tw.track(obs::ChromeTraceWriter::kMemPid, "t"), a);
    tw.span(obs::ChromeTraceWriter::kMemPid, a, "s1", "mem", 0, 1);
    tw.span(obs::ChromeTraceWriter::kMemPid, a, "s2", "mem", 1, 2);
    tw.span(obs::ChromeTraceWriter::kMemPid, a, "s3", "mem", 90, 100);
    tw.span(obs::ChromeTraceWriter::kMemPid, a, "s4", "mem", 95, 101);
    tw.span(obs::ChromeTraceWriter::kMemPid, a, "s5", "mem", 102, 110);

    // Without lanes every span in the ring renders; the oldest is
    // gone.
    std::string doc = tw.render();
    EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
    EXPECT_EQ(doc.find("\"s1\""), std::string::npos) << doc;
    for (const char *kept : {"\"s2\"", "\"s3\"", "\"s4\"", "\"s5\""})
        EXPECT_NE(doc.find(kept), std::string::npos) << kept;

    // A lane from cycle 100: a span whose last cycle is before it is
    // not rendered, one that reaches it is.
    PipeRecord rec;
    rec.seq = 1;
    rec.issue = 100;
    rec.dispatch = 101;
    rec.execute = 102;
    rec.complete = 103;
    rec.commit = 104;
    tw.addPipeRecord(0, rec);
    doc = tw.render();
    EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
    EXPECT_EQ(doc.find("\"s2\""), std::string::npos) << doc;
    EXPECT_EQ(doc.find("\"s3\""), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"s4\""), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"s5\""), std::string::npos) << doc;
    // Metadata first, then memory spans, then the lanes.
    EXPECT_LT(doc.find("\"thread_name\""), doc.find("\"s4\""));
    EXPECT_LT(doc.find("\"s5\""), doc.find("\"pipe\""));

    // The ring dropped only s1, which ends before the window: writing
    // the file says nothing.
    const std::string path = ::testing::TempDir() + "window_trace.json";
    std::string sink;
    setLogSink(&sink);
    EXPECT_TRUE(tw.writeFile(path));
    setLogSink(nullptr);
    EXPECT_EQ(sink, "");

    // Four more spans push s2..s5 out; s4 and s5 reached the lanes,
    // so the memory tracks are complete only from cycle 110 on.
    for (Cycle c = 120; c < 124; ++c)
        tw.span(obs::ChromeTraceWriter::kMemPid, a, "late", "mem", c,
                c + 1);
    setLogSink(&sink);
    EXPECT_TRUE(tw.writeFile(path));
    setLogSink(nullptr);
    EXPECT_NE(sink.find("'" + path + "'"), std::string::npos) << sink;
    EXPECT_NE(sink.find("begin at cycle 110"), std::string::npos)
        << sink;
    std::remove(path.c_str());
}

TEST(ChromeTrace, TracedRunRendersOnlyTheLanesWindow)
{
    obs::ObsOptions run;
    run.traceOutPath = ::testing::TempDir() + "run_window_trace.json";
    PerfModel model(sparc64vBase(), run);
    model.loadWorkload(tpccProfile(), 30'000);
    model.run();
    std::ifstream in(run.traceOutPath);
    const std::string doc((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    std::remove(run.traceOutPath.c_str());
    ASSERT_TRUE(JsonChecker(doc).valid());

    std::uint64_t first = ~std::uint64_t{0}, last = 0;
    std::size_t lanes = 0;
    const std::vector<XEvent> events = completeEvents(doc);
    for (const XEvent &e : events) {
        if (e.cat != "pipe")
            continue;
        ++lanes;
        first = std::min(first, e.ts);
        last = std::max(last, e.ts + e.dur);
    }
    ASSERT_GT(lanes, 0u);
    std::size_t spans = 0, outside = 0;
    for (const XEvent &e : events) {
        if (e.cat == "pipe")
            continue;
        ++spans;
        if (e.ts + e.dur <= first || e.ts >= last)
            ++outside;
    }
    EXPECT_EQ(outside, 0u) << "of " << spans << " memory spans, lanes "
                           << first << "-" << last;
    // The run misses in the lanes' window, so the check is not empty.
    EXPECT_GT(spans, 0u);
}

TEST(Heartbeat, ReportsProgress)
{
    std::string sink;
    setLogSink(&sink);
    obs::Heartbeat hb(/*period=*/100, /*expected_instrs=*/1000);
    hb.beat(100, 50);
    hb.beat(200, 100);
    setLogSink(nullptr);

    EXPECT_EQ(hb.beats(), 2u);
    EXPECT_NE(sink.find("heartbeat"), std::string::npos);
    EXPECT_NE(sink.find("ipc"), std::string::npos);
    EXPECT_NE(sink.find("KIPS"), std::string::npos);
}

TEST(Heartbeat, SingleRunBeatsAtItsOwnPeriod)
{
    // The run loop schedules the heartbeat at the period it was built
    // with; heartbeat=N reaches it through the run options.
    obs::ObsOptions run;
    run.heartbeatPeriod = 500;
    PerfModel model(sparc64vBase(), run);
    model.loadWorkload(specint95Profile(), 8000);
    std::string sink;
    setLogSink(&sink);
    model.run();
    setLogSink(nullptr);

    EXPECT_NE(sink.find("heartbeat: cycle 500,"), std::string::npos)
        << sink;
    EXPECT_NE(sink.find("heartbeat: cycle 1000,"), std::string::npos)
        << sink;
    EXPECT_EQ(sink.find("heartbeat: cycle 750,"), std::string::npos)
        << sink;
}

TEST(RunObs, ParsesObservabilityFlags)
{
    const char *argv[] = {
        "prog", "--stats-json=a.json", "trace-out=b.json",
        "--sample-out=c.jsonl", "sample-period=500",
        "--heartbeat=2000", "workload=TPC-C",
    };
    std::vector<std::string> rest;
    const obs::ObsOptions o = obs::parseObsArgs(7, argv, &rest);
    EXPECT_EQ(rest, std::vector<std::string>{"workload=TPC-C"});
    EXPECT_EQ(o.statsJsonPath, "a.json");
    EXPECT_EQ(o.traceOutPath, "b.json");
    EXPECT_EQ(o.sampleOutPath, "c.jsonl");
    EXPECT_EQ(o.samplePeriod, 500u);
    EXPECT_EQ(o.heartbeatPeriod, 2000u);
}

TEST(RunObs, ParsesPipeviewFlag)
{
    const char *argv[] = {"prog", "--pipeview-out=pipe.txt"};
    std::vector<std::string> rest;
    const obs::ObsOptions o = obs::parseObsArgs(2, argv, &rest);
    EXPECT_TRUE(rest.empty());
    EXPECT_EQ(o.pipeviewOutPath, "pipe.txt");
}

TEST(RunObs, MalformedNumericFlagsAreFatal)
{
    // "--watchdog=1e5" used to arm a 1-cycle watchdog, which then
    // reported a deadlock at cycle 1.
    setThrowOnError(true);
    for (const char *bad :
         {"--watchdog=1e5", "--seed=-1", "heartbeat=10k",
          "--sample-period=", "--threads=2.5", "--checkpoint-at=0x",
          "--threads=4294967296"}) {
        const char *argv[] = {"prog", bad};
        EXPECT_THROW(obs::parseObsArgs(2, argv), std::runtime_error)
            << bad;
    }
    setThrowOnError(false);

    const char *argv[] = {"prog", "--watchdog=0x100", "--seed=18"};
    const obs::ObsOptions o = obs::parseObsArgs(3, argv);
    EXPECT_EQ(o.watchdogCycles, 0x100u);
    EXPECT_EQ(o.seed, 18u);
    // Each parse starts from the defaults: nothing carries over.
    const obs::ObsOptions fresh = obs::parseObsArgs(1, argv);
    EXPECT_EQ(fresh.watchdogCycles, obs::ObsOptions::kUnset);
    EXPECT_EQ(fresh.seed, obs::ObsOptions::kUnset);
}

TEST(RunObs, ReturnsTheArgumentsItDoesNotRecognise)
{
    const char *argv[] = {
        "prog",          "workload=TPC-C",  "--resume=s.journal",
        "instrs=20000",  "--threads=2",     "--resume",
        "--seed=3",      "--no-skip-ahead", "pipeview=8",
        "skip-ahead=0",  "--check=cycle",   "--watchdog-escalate",
        "--typo",
    };
    std::vector<std::string> rest;
    const obs::ObsOptions o = obs::parseObsArgs(13, argv, &rest);
    // Everything the obs layer does not own comes back, in order; a
    // bare --resume, which names no journal, is not a run flag, and
    // neither is --watchdog-escalate, whose checkpoints are gone.
    EXPECT_EQ(rest, (std::vector<std::string>{
                        "workload=TPC-C", "instrs=20000", "--resume",
                        "pipeview=8", "skip-ahead=0",
                        "--watchdog-escalate", "--typo"}));
    EXPECT_EQ(o.journalPath, "s.journal");
    EXPECT_EQ(o.threads, 2u);
    EXPECT_TRUE(o.resume);
    EXPECT_EQ(o.seed, 3u);
    EXPECT_FALSE(o.skipAhead);
    EXPECT_EQ(o.checkLevel, check::CheckLevel::PerCycle);
    EXPECT_FALSE(obs::parseObsArgs(1, argv).checkLevel);
}

TEST(RunObs, UnknownArgumentWithoutRestIsFatal)
{
    // Without a caller to hand leftovers to, a typo must not be
    // dropped silently: the run would go ahead on the defaults.
    setThrowOnError(true);
    const char *argv[] = {"prog", "--threads=1", "--typo"};
    try {
        obs::parseObsArgs(3, argv);
        ADD_FAILURE() << "--typo was accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("'--typo'"),
                  std::string::npos)
            << e.what();
    }
    setThrowOnError(false);
}

} // namespace
} // namespace s64v
