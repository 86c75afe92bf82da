#include "cpu/pipeview.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/logging.hh"
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

PipeRecord
rec(std::uint64_t seq, Cycle issue)
{
    PipeRecord r;
    r.seq = seq;
    r.pc = 0x1000 + 4 * seq;
    r.cls = InstrClass::IntAlu;
    r.issue = issue;
    r.dispatch = issue + 1;
    r.execute = issue + 3;
    r.complete = issue + 3;
    r.commit = issue + 4;
    return r;
}

TEST(Pipeview, RingKeepsMostRecent)
{
    PipeviewRecorder pv(4);
    for (std::uint64_t s = 1; s <= 10; ++s)
        pv.record(rec(s, 10 * s));
    EXPECT_EQ(pv.size(), 4u);
    EXPECT_EQ(pv.recorded(), 10u);

    const auto snap = pv.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    EXPECT_EQ(snap.front().seq, 7u);
    EXPECT_EQ(snap.back().seq, 10u);
}

TEST(Pipeview, SnapshotBeforeWrap)
{
    PipeviewRecorder pv(8);
    pv.record(rec(1, 5));
    pv.record(rec(2, 6));
    const auto snap = pv.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].seq, 1u);
    EXPECT_EQ(snap[1].seq, 2u);
}

TEST(Pipeview, RenderShowsStageMarkers)
{
    PipeviewRecorder pv(4);
    pv.record(rec(1, 10));
    const std::string out = pv.render();
    EXPECT_NE(out.find("pipeview"), std::string::npos);
    EXPECT_NE(out.find('i'), std::string::npos);
    EXPECT_NE(out.find('R'), std::string::npos);
    EXPECT_NE(out.find("int"), std::string::npos);
}

TEST(Pipeview, RenderEmpty)
{
    PipeviewRecorder pv(4);
    EXPECT_NE(pv.render().find("no committed"), std::string::npos);
}

TEST(Pipeview, ZeroCapacityRejected)
{
    setThrowOnError(true);
    EXPECT_THROW(PipeviewRecorder pv(0), std::runtime_error);
    setThrowOnError(false);
}

TEST(Pipeview, CoreFillsMonotoneTimestamps)
{
    SystemParams sp;
    System sys(sp);
    PipeviewRecorder pv(128);
    sys.core(0).attachPipeview(&pv);
    sys.attachTrace(0, generateTrace(specint95Profile(), 5000));
    sys.run();

    EXPECT_EQ(pv.recorded(), 5000u);
    std::uint64_t prev_seq = 0;
    for (const PipeRecord &r : pv.snapshot()) {
        EXPECT_GT(r.seq, prev_seq); // commit order.
        prev_seq = r.seq;
        EXPECT_LE(r.issue, r.commit);
        if (r.cls != InstrClass::Nop) {
            EXPECT_LE(r.issue, r.dispatch);
            EXPECT_LE(r.dispatch, r.execute);
            EXPECT_LE(r.complete, r.commit);
        }
    }
    EXPECT_FALSE(pv.render().empty());
}

TEST(PipeviewO3, WritesKonataCompatibleRecordGroups)
{
    PipeviewRecorder pv(4);
    pv.record(rec(1, 10));
    pv.record(rec(2, 12));
    std::ostringstream out;
    pv.writeO3PipeView(out, /*cpu=*/0);

    std::istringstream in(out.str());
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(in, line))
        lines.push_back(line);
    // Seven O3PipeView lines per instruction.
    ASSERT_EQ(lines.size(), 14u);
    static const char *const kStages[7] = {
        "O3PipeView:fetch:", "O3PipeView:decode:",
        "O3PipeView:rename:", "O3PipeView:dispatch:",
        "O3PipeView:issue:", "O3PipeView:complete:",
        "O3PipeView:retire:"};
    for (std::size_t i = 0; i < lines.size(); ++i)
        EXPECT_EQ(lines[i].rfind(kStages[i % 7], 0), 0u) << lines[i];

    // Timestamps scale by ticks_per_cycle (default 1000); the fetch
    // line carries pc, sequence number, and a disassembly stand-in.
    EXPECT_EQ(lines[0], "O3PipeView:fetch:10000:0x00001004:0:1:int");
    EXPECT_EQ(lines[3], "O3PipeView:dispatch:11000");
    EXPECT_EQ(lines[4], "O3PipeView:issue:13000");
    EXPECT_EQ(lines[6], "O3PipeView:retire:14000:store:0");
    EXPECT_EQ(lines[7], "O3PipeView:fetch:12000:0x00001008:0:2:int");
}

TEST(PipeviewO3, TagsCpuIntoSequenceNumbers)
{
    PipeviewRecorder pv(2);
    pv.record(rec(1, 10));
    std::ostringstream a, b;
    pv.writeO3PipeView(a, 0);
    pv.writeO3PipeView(b, 1);
    EXPECT_NE(a.str(), b.str());
    EXPECT_NE(b.str().find(":0:" +
                           std::to_string((1ull << 48) | 1) + ":"),
              std::string::npos);
}

TEST(PipeviewO3, PerfModelFlagWritesFile)
{
    const std::string path = ::testing::TempDir() + "pipeview.txt";
    obs::ObsOptions run;
    run.pipeviewOutPath = path;

    PerfModel model(sparc64vBase(), run);
    model.loadWorkload(specint95Profile(), 5000);
    model.run();

    std::ifstream f(path);
    ASSERT_TRUE(f.good());
    std::stringstream ss;
    ss << f.rdbuf();
    const std::string doc = ss.str();
    EXPECT_EQ(doc.rfind("O3PipeView:fetch:", 0), 0u);
    EXPECT_NE(doc.find("O3PipeView:retire:"), std::string::npos);
    std::istringstream in(doc);
    std::string line;
    std::size_t n = 0;
    while (std::getline(in, line))
        ++n;
    EXPECT_EQ(n % 7, 0u);
    std::remove(path.c_str());
}

} // namespace
} // namespace s64v
