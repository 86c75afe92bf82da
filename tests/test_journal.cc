/**
 * @file
 * Tests for the write-ahead run journal (exp/journal.hh): the line
 * encoding (a hex container image) must round-trip every field
 * bit-exactly (doubles travel as IEEE-754 bit patterns), every damaged
 * line must decode to false without running an error hook, load()
 * must tolerate the crash signatures — a torn final line silently, a
 * corrupt interior line with a warning — without ever crashing or
 * allocating without bound (the decode fuzz runs under a capped
 * address space). The --journal/--resume observability flags are
 * parsed here too.
 */

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

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
            << "prefix of " << len << " characters decoded";
    }
    // Every single-bit flip: a hex digit that becomes another digit
    // fails a checksum, anything else is not a lowercase hex digit.
    std::size_t decoded = 0;
    for (std::size_t bit = 0; bit < good.size() * 8; ++bit) {
        std::string line = good;
        line[bit / 8] = static_cast<char>(line[bit / 8] ^ (1 << (bit % 8)));
        if (exp::decodeJournalEntry(line, out) && decoded++ == 0)
            ADD_FAILURE() << "flip of bit " << bit << " decoded";
    }
    EXPECT_EQ(decoded, 0u);

    // Lines that are not an even run of lowercase hex digits.
    std::string upper = good;
    for (char &c : upper)
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    const std::string bad[] = {
        good + "0",           // odd length.
        good + "00",          // a trailing byte after the image.
        upper,                // the same bytes in uppercase digits.
        " " + good.substr(1), // a space for a digit.
        "not hex at all",
        "{}",
    };
    for (const std::string &line : bad) {
        EXPECT_FALSE(exp::decodeJournalEntry(line, out))
            << line.substr(0, 40);
    }

    // load() skips every one of them and keeps the intact entries
    // around them.
    const std::string path = tempPath("malformed.journal");
    {
        std::ofstream f(path, std::ios::trunc);
        f << good << '\n';
        for (const std::string &line : bad)
            f << line << '\n';
        f << good << '\n';
    }
    std::string sink;
    setLogSink(&sink);
    const auto loaded = exp::RunJournal::load(path);
    setLogSink(nullptr);
    EXPECT_EQ(loaded.size(), 2u);
    std::remove(path.c_str());
}

TEST(Journal, DeeplyNestedLineIsRejectedNotACrash)
{
    // A journal written by an older build, or damaged into bracket
    // soup, may hold lines a million levels deep; decoding must
    // refuse them like any other line that is not a hex image, in
    // bounded stack and memory.
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

TEST(Journal, DamagedLineRunsNoErrorHook)
{
    // A damaged line is the journal's to skip, not an error: decoding
    // it must not go through fatal(), whose hook would write a crash
    // report for a run that is still healthy.
    const std::string good = exp::encodeJournalEntry(sampleEntry());
    std::string flipped = good;
    flipped[good.size() / 2] = flipped[good.size() / 2] == '0' ? '1' : '0';

    int hooks = 0;
    setErrorHook([&](const char *, const std::string &) { ++hooks; });
    exp::JournalEntry out;
    const bool decoded_flipped = exp::decodeJournalEntry(flipped, out);
    const bool decoded_prefix =
        exp::decodeJournalEntry(good.substr(0, good.size() - 2), out);
    const bool decoded_text = exp::decodeJournalEntry("{\"v\":2}", out);
    setErrorHook({});

    EXPECT_FALSE(decoded_flipped);
    EXPECT_FALSE(decoded_prefix);
    EXPECT_FALSE(decoded_text);
    EXPECT_EQ(hooks, 0);
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
