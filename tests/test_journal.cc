/**
 * @file
 * Tests for the write-ahead run journal (exp/journal.hh): the JSONL
 * encoding must round-trip every field bit-exactly (doubles travel as
 * IEEE-754 bit patterns), load() must tolerate the crash signatures —
 * a torn final line silently, a corrupt interior line with a warning —
 * without ever crashing or allocating without bound (the decode fuzz
 * runs under a capped address space), and the truncate-journal fault
 * injection must tear exactly the configured append. The
 * --journal/--resume observability flags are parsed here too.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "check/fault_inject.hh"
#include "common/logging.hh"
#include "exp/journal.hh"
#include "obs/run_obs.hh"

#include "address_space_cap.hh"

namespace s64v
{
namespace
{

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

exp::JournalEntry
sampleEntry()
{
    exp::JournalEntry e;
    e.index = 7;
    e.label = "tpcc/4w \"quoted\"\n\ttab";
    e.configHash = 0xfeedfacecafebeefull;
    e.workloadHash = 0x123456789abcdef0ull;
    e.modelVersion = "s64v-test";
    e.status = "ok";
    e.error = "";
    e.sim.cycles = 123456;
    e.sim.instructions = 240000;
    e.sim.measured = 200000;
    e.sim.ipc = 1.0 / 3.0; // must survive bit-exactly.
    e.sim.hitCycleCap = false;
    e.sim.interrupted = false;
    e.sim.stoppedAtCheckpoint = true;
    e.sim.warmupEndCycle = 9999;
    CoreResult cr;
    cr.committed = 60000;
    cr.measured = 50000;
    cr.lastCommitCycle = 123400;
    cr.ipc = 5e-324; // denormal: the acid test for bit round-trips.
    e.sim.cores.assign(4, cr);
    e.metrics["mispredict"] = 0.1 + 0.2; // != 0.3 in binary.
    e.metrics["bus_util"] = 0.75;
    return e;
}

void
expectSameEntry(const exp::JournalEntry &a, const exp::JournalEntry &b)
{
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.configHash, b.configHash);
    EXPECT_EQ(a.workloadHash, b.workloadHash);
    EXPECT_EQ(a.modelVersion, b.modelVersion);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.sim.cycles, b.sim.cycles);
    EXPECT_EQ(a.sim.instructions, b.sim.instructions);
    EXPECT_EQ(a.sim.measured, b.sim.measured);
    // Bit patterns, not values: memcmp catches -0.0 vs 0.0 and NaN.
    EXPECT_EQ(std::memcmp(&a.sim.ipc, &b.sim.ipc, sizeof(double)), 0);
    EXPECT_EQ(a.sim.hitCycleCap, b.sim.hitCycleCap);
    EXPECT_EQ(a.sim.interrupted, b.sim.interrupted);
    EXPECT_EQ(a.sim.stoppedAtCheckpoint, b.sim.stoppedAtCheckpoint);
    EXPECT_EQ(a.sim.warmupEndCycle, b.sim.warmupEndCycle);
    ASSERT_EQ(a.sim.cores.size(), b.sim.cores.size());
    for (std::size_t c = 0; c < a.sim.cores.size(); ++c) {
        EXPECT_EQ(a.sim.cores[c].committed, b.sim.cores[c].committed);
        EXPECT_EQ(a.sim.cores[c].measured, b.sim.cores[c].measured);
        EXPECT_EQ(a.sim.cores[c].lastCommitCycle,
                  b.sim.cores[c].lastCommitCycle);
        EXPECT_EQ(std::memcmp(&a.sim.cores[c].ipc, &b.sim.cores[c].ipc,
                              sizeof(double)),
                  0);
    }
    ASSERT_EQ(a.metrics.size(), b.metrics.size());
    for (const auto &[name, value] : a.metrics) {
        ASSERT_TRUE(b.metrics.count(name)) << name;
        const double other = b.metrics.at(name);
        EXPECT_EQ(std::memcmp(&value, &other, sizeof(double)), 0)
            << name;
    }
}

TEST(Journal, EncodeDecodeRoundTripsEveryFieldBitExactly)
{
    const exp::JournalEntry e = sampleEntry();
    const std::string line = exp::encodeJournalEntry(e);
    EXPECT_EQ(line.find('\n'), std::string::npos)
        << "a journal line must be exactly one line";

    exp::JournalEntry back;
    ASSERT_TRUE(exp::decodeJournalEntry(line, back)) << line;
    expectSameEntry(e, back);
}

TEST(Journal, FailedEntryCarriesTheError)
{
    exp::JournalEntry e = sampleEntry();
    e.status = "failed";
    e.error = "panic: no instruction committed in 2 cycles";
    exp::JournalEntry back;
    ASSERT_TRUE(
        exp::decodeJournalEntry(exp::encodeJournalEntry(e), back));
    EXPECT_EQ(back.status, "failed");
    EXPECT_EQ(back.error, e.error);
}

TEST(Journal, MalformedLinesAreRejectedNotCrashes)
{
    const std::string good =
        exp::encodeJournalEntry(sampleEntry());
    exp::JournalEntry out;
    testutil::ScopedAddressSpaceCap cap;

    // Every strict prefix models a torn append.
    for (std::size_t len = 0; len < good.size(); ++len) {
        EXPECT_FALSE(exp::decodeJournalEntry(
            std::string_view(good).substr(0, len), out))
            << "prefix of " << len << " bytes decoded";
    }
    EXPECT_FALSE(exp::decodeJournalEntry("", out));
    EXPECT_FALSE(exp::decodeJournalEntry("not json at all", out));
    EXPECT_FALSE(exp::decodeJournalEntry("{}", out));
    EXPECT_FALSE(exp::decodeJournalEntry("[1,2,3]", out));
    EXPECT_FALSE(exp::decodeJournalEntry("{\"v\":2}", out));

    // Any other schema version — the retired 1, a future 9 — is
    // skipped, not misread.
    const std::size_t at = good.find("\"v\":2");
    ASSERT_NE(at, std::string::npos);
    for (const char *other : {"\"v\":1", "\"v\":9"}) {
        std::string line = good;
        line.replace(at, 5, other);
        EXPECT_FALSE(exp::decodeJournalEntry(line, out)) << other;
    }

    // A minimal well-formed entry decodes; a negative counter (not
    // a huge unsigned value) or a status other than "ok"/"failed"
    // makes it nonsense.
    const std::string minimal =
        "{\"v\":2,\"index\":0,\"label\":\"x\",\"config\":0,"
        "\"workload\":0,\"model\":\"m\",\"status\":\"ok\","
        "\"error\":\"\",\"sim\":{\"cycles\":0,"
        "\"instructions\":0,\"measured\":0,\"ipc_bits\":0,"
        "\"hit_cycle_cap\":false,\"interrupted\":false,"
        "\"stopped_at_checkpoint\":false,\"warmup_end\":0,"
        "\"cores\":[]},\"metrics\":{}}";
    EXPECT_TRUE(exp::decodeJournalEntry(minimal, out));
    auto replaced = [&](const std::string &from, const std::string &to) {
        std::string line = minimal;
        line.replace(line.find(from), from.size(), to);
        return line;
    };
    EXPECT_FALSE(exp::decodeJournalEntry(
        replaced("\"index\":0", "\"index\":-1"), out));
    EXPECT_FALSE(exp::decodeJournalEntry(
        replaced("\"ok\"", "\"skipped\""), out));
}

TEST(Journal, DeeplyNestedLineIsRejectedNotACrash)
{
    // Unbounded recursion on nesting would overflow the stack long
    // before a million levels; the parser must refuse such a line the
    // way it refuses any other malformed one.
    constexpr std::size_t kDepth = 1'000'000;
    std::string arrays(kDepth, '[');
    std::string objects;
    objects.reserve(kDepth * 5);
    for (std::size_t i = 0; i < kDepth; ++i)
        objects += "{\"a\":";

    testutil::ScopedAddressSpaceCap cap;
    exp::JournalEntry out;
    EXPECT_FALSE(exp::decodeJournalEntry(arrays, out));
    EXPECT_FALSE(exp::decodeJournalEntry(objects, out));

    // load() skips both lines and keeps the intact entries around them.
    const std::string path = tempPath("nested.journal");
    const std::string good = exp::encodeJournalEntry(sampleEntry());
    {
        std::ofstream f(path, std::ios::trunc);
        f << good << '\n' << arrays << '\n' << objects << '\n'
          << good << '\n';
    }
    std::string sink;
    setLogSink(&sink);
    const auto loaded = exp::RunJournal::load(path);
    setLogSink(nullptr);
    EXPECT_EQ(loaded.size(), 2u);
    std::remove(path.c_str());
}

TEST(Journal, AppendLoadRoundTripsInOrder)
{
    const std::string path = tempPath("roundtrip.journal");
    std::remove(path.c_str());

    exp::JournalEntry a = sampleEntry();
    a.index = 0;
    a.label = "first";
    exp::JournalEntry b = sampleEntry();
    b.index = 1;
    b.label = "second";
    b.status = "failed";
    b.error = "transient";

    {
        exp::RunJournal journal;
        ASSERT_TRUE(journal.open(path));
        EXPECT_TRUE(journal.isOpen());
        journal.append(a);
        journal.append(b);
    }
    // Reopening appends — resume grows the same file.
    {
        exp::RunJournal journal;
        ASSERT_TRUE(journal.open(path));
        exp::JournalEntry c = sampleEntry();
        c.index = 1;
        c.label = "second";
        journal.append(c);
    }

    const auto loaded = exp::RunJournal::load(path);
    ASSERT_EQ(loaded.size(), 3u);
    expectSameEntry(a, loaded[0]);
    expectSameEntry(b, loaded[1]);
    EXPECT_EQ(loaded[2].index, 1u);
    EXPECT_EQ(loaded[2].status, "ok");
    std::remove(path.c_str());
}

TEST(Journal, MissingFileLoadsEmpty)
{
    EXPECT_TRUE(
        exp::RunJournal::load(tempPath("never_written.journal"))
            .empty());
}

TEST(Journal, TornFinalLineIsSkippedSilently)
{
    const std::string path = tempPath("torn.journal");
    const std::string line = exp::encodeJournalEntry(sampleEntry());
    {
        std::ofstream out(path, std::ios::trunc);
        out << line << '\n'
            << line << '\n'
            << line.substr(0, line.size() / 2); // crash mid-append.
    }
    std::string sink;
    setLogSink(&sink);
    const auto loaded = exp::RunJournal::load(path);
    setLogSink(nullptr);
    EXPECT_EQ(loaded.size(), 2u);
    // The torn tail is the normal crash signature — no warning.
    EXPECT_EQ(sink.find("journal"), std::string::npos) << sink;
    std::remove(path.c_str());
}

TEST(Journal, CorruptInteriorLineWarnsAndIsSkipped)
{
    const std::string path = tempPath("interior.journal");
    const std::string line = exp::encodeJournalEntry(sampleEntry());
    {
        std::ofstream out(path, std::ios::trunc);
        out << line << '\n'
            << "{\"v\":1,\"garbage\"" << '\n' // damaged mid-file.
            << line << '\n';
    }
    std::string sink;
    setLogSink(&sink);
    const auto loaded = exp::RunJournal::load(path);
    setLogSink(nullptr);
    EXPECT_EQ(loaded.size(), 2u);
    EXPECT_NE(sink.find("line 2"), std::string::npos) << sink;
    std::remove(path.c_str());
}

TEST(Journal, TruncateJournalFaultTearsTheConfiguredAppend)
{
    const std::string path = tempPath("fault.journal");
    std::remove(path.c_str());

    std::string sink;
    setLogSink(&sink);
    check::activeFaultPlan().parse("truncate-journal:1");
    {
        exp::RunJournal journal;
        ASSERT_TRUE(journal.open(path));
        exp::JournalEntry e = sampleEntry();
        e.index = 0;
        journal.append(e); // append 0: intact.
        e.index = 1;
        journal.append(e); // append 1: torn mid-line, journal dies.
        e.index = 2;
        journal.append(e); // dropped: the process is "dead".
    }
    check::activeFaultPlan().clear();
    check::armFaultExitCode();
    setLogSink(nullptr);
    EXPECT_NE(sink.find("fault injection"), std::string::npos) << sink;

    // Resume semantics: only the intact first append survives; the
    // torn line is skipped like any crash tail.
    const auto loaded = exp::RunJournal::load(path);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded[0].index, 0u);
    std::remove(path.c_str());
}

TEST(Journal, DurabilityFlagsParse)
{
    const char *argv[] = {"sim",
                          "--journal=sweep.journal",
                          "--watchdog-escalate",
                          "--checkpoint-at=100000",
                          "--checkpoint-out=run.ckpt",
                          "--checkpoint-stop",
                          "--restore=old.ckpt"};
    std::vector<std::string> rest;
    const obs::ObsOptions o = obs::parseObsArgs(7, argv, &rest);
    EXPECT_TRUE(rest.empty());
    EXPECT_EQ(o.journalPath, "sweep.journal");
    EXPECT_FALSE(o.resume);
    EXPECT_TRUE(o.watchdogEscalate);
    EXPECT_EQ(o.checkpointAt, 100000u);
    EXPECT_EQ(o.checkpointOut, "run.ckpt");
    EXPECT_TRUE(o.checkpointStop);
    EXPECT_EQ(o.restorePath, "old.ckpt");

    // --resume=<path> names the journal and turns resumption on.
    const char *argv2[] = {"sim", "--resume=sweep.journal"};
    const obs::ObsOptions r = obs::parseObsArgs(2, argv2);
    EXPECT_TRUE(r.resume);
    EXPECT_EQ(r.journalPath, "sweep.journal");
}

} // namespace
} // namespace s64v
