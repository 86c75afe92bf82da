/**
 * @file
 * Tests for the sweep run journal (exp/journal.hh): one container
 * file that must round-trip every field bit-exactly (doubles travel
 * as IEEE-754 bit patterns). Every damaged file, and every file that
 * is not a journal, must be refused whole with one warning naming it,
 * without running an error hook, crashing or allocating without bound
 * (the fuzz runs under a capped address space); a journal of another
 * model version is read as empty. The --journal/--resume= flags are
 * parsed here too.
 */

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "ckpt/snapshot.hh"
#include "common/logging.hh"
#include "exp/journal.hh"
#include "model/fingerprint.hh"
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

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

exp::JournalEntry
sampleEntry()
{
    exp::JournalEntry e;
    e.index = 7;
    e.label = "tpcc/4w \"quoted\"\n\ttab";
    e.configHash = 0xfeedfacecafebeefull;
    e.workloadHash = 0x123456789abcdef0ull;
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

/** Three entries in key order, the shape of a short sweep. */
std::vector<exp::JournalEntry>
threeEntries()
{
    std::vector<exp::JournalEntry> entries(3, sampleEntry());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        entries[i].index = i;
        entries[i].label = "point" + std::to_string(i);
    }
    return entries;
}

void
expectSameEntry(const exp::JournalEntry &a, const exp::JournalEntry &b)
{
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.configHash, b.configHash);
    EXPECT_EQ(a.workloadHash, b.workloadHash);
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

/**
 * readJournal(@p path) under a log sink: @return whether it refused
 * the file, and expect exactly one warning, naming the file, if so.
 */
bool
refused(const std::string &path, std::string *log = nullptr)
{
    std::string sink;
    setLogSink(&sink);
    const auto read = exp::readJournal(path);
    setLogSink(nullptr);
    if (read)
        return false;
    std::size_t warnings = 0;
    for (std::size_t at = sink.find("warn: "); at != std::string::npos;
         at = sink.find("warn: ", at + 1))
        ++warnings;
    EXPECT_EQ(warnings, 1u) << sink;
    EXPECT_NE(sink.find("'" + path + "'"), std::string::npos) << sink;
    if (log)
        *log = sink;
    return true;
}

TEST(Journal, EncodeDecodeRoundTripsEveryFieldBitExactly)
{
    const std::string path = tempPath("fields.journal");
    const exp::JournalEntry e = sampleEntry();
    ASSERT_TRUE(exp::writeJournal(path, {e}));

    const auto back = exp::readJournal(path);
    ASSERT_TRUE(back);
    ASSERT_EQ(back->size(), 1u);
    expectSameEntry(e, back->front());
    std::remove(path.c_str());
}

TEST(Journal, AppendLoadRoundTripsInOrder)
{
    // Two sweeps of one program over one file (fig19_accuracy's
    // shape): each adds its entries by rewriting the whole list, and
    // the file keeps both in key order.
    const std::string path = tempPath("union.journal");
    std::remove(path.c_str());

    exp::JournalEntry a = sampleEntry();
    a.index = 0;
    a.label = "ladder/v1";
    exp::JournalEntry b = sampleEntry();
    b.index = 1;
    b.label = "ladder/v2";
    exp::JournalEntry c = sampleEntry();
    c.index = 0;
    c.label = "verify/v1";
    c.sim.ipc = 2.5;
    ASSERT_TRUE(exp::writeJournal(path, {a, b}));
    ASSERT_TRUE(exp::writeJournal(path, {a, c, b}));

    const auto loaded = exp::readJournal(path);
    ASSERT_TRUE(loaded);
    ASSERT_EQ(loaded->size(), 3u);
    expectSameEntry(a, (*loaded)[0]);
    expectSameEntry(c, (*loaded)[1]);
    expectSameEntry(b, (*loaded)[2]);

    // Rewriting the same list writes the same bytes.
    const std::string bytes = readBytes(path);
    ASSERT_TRUE(exp::writeJournal(path, *loaded));
    EXPECT_EQ(readBytes(path), bytes);
    std::remove(path.c_str());
}

TEST(Journal, MissingFileLoadsEmpty)
{
    std::string sink;
    setLogSink(&sink);
    const auto read = exp::readJournal(tempPath("never_written.journal"));
    setLogSink(nullptr);
    ASSERT_TRUE(read);
    EXPECT_TRUE(read->empty());
    EXPECT_EQ(sink, "");
}

TEST(Journal, EveryBitFlipAndTruncationIsRefused)
{
    const std::string good = tempPath("fuzz_good.journal");
    ASSERT_TRUE(exp::writeJournal(good, threeEntries()));
    const std::string image = readBytes(good);
    ASSERT_GT(image.size(), 100u);

    const std::string path = tempPath("fuzz.journal");
    int hooks = 0;
    setErrorHook([&](const char *, const std::string &) { ++hooks; });
    testutil::ScopedAddressSpaceCap cap;

    // Every strict prefix models a file cut short.
    std::size_t accepted = 0;
    for (std::size_t len = 0; len < image.size(); ++len) {
        writeBytes(path, image.substr(0, len));
        if (!refused(path) && accepted++ == 0)
            ADD_FAILURE() << "prefix of " << len << " bytes was read";
    }
    // Every single-bit flip fails a checksum or the magic.
    for (std::size_t bit = 0; bit < image.size() * 8; ++bit) {
        std::string bytes = image;
        bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
        writeBytes(path, bytes);
        if (!refused(path) && accepted++ == 0)
            ADD_FAILURE() << "flip of bit " << bit << " was read";
    }
    setErrorHook({});
    EXPECT_EQ(accepted, 0u);
    EXPECT_EQ(hooks, 0);
    std::remove(path.c_str());
    std::remove(good.c_str());
}

TEST(Journal, HugeEntryCountIsRefusedWithoutReserving)
{
    // Valid checksums around a forged count of 2^60: the reader meets
    // the section end at the first entry instead of sizing anything.
    ckpt::SnapshotWriter w;
    ckpt::Archive ar(w);
    ar.section("journal");
    ar.layout("journal", exp::kJournalLayout);
    std::uint64_t count = 1ull << 60;
    ar.u64(count);
    const std::vector<std::uint8_t> image = w.finish(modelVersionString());
    const std::string path = tempPath("huge_count.journal");
    writeBytes(path, std::string(image.begin(), image.end()));

    testutil::ScopedAddressSpaceCap cap;
    std::string log;
    EXPECT_TRUE(refused(path, &log));
    EXPECT_NE(log.find("section 'journal'"), std::string::npos) << log;
    std::remove(path.c_str());
}

TEST(Journal, OversizedFileIsRefusedBeforeItIsRead)
{
    // A sparse file one byte past the container's 1 GiB load cap
    // occupies no disk, and is refused by its size alone.
    const std::string path = tempPath("oversized.journal");
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::ftruncate(fd, (1ll << 30) + 1), 0);
    ::close(fd);

    testutil::ScopedAddressSpaceCap cap(64ull << 20);
    std::string log;
    EXPECT_TRUE(refused(path, &log));
    EXPECT_NE(log.find("1 GiB"), std::string::npos) << log;
    std::remove(path.c_str());
}

TEST(Journal, MalformedLinesAreRejectedNotCrashes)
{
    // Files of text lines are no journal: the hex-line journal of
    // earlier builds (one hex container image per line), a note, and
    // JSON. Each is refused whole, and reading never writes it.
    const std::string good = tempPath("lines_good.journal");
    ASSERT_TRUE(exp::writeJournal(good, threeEntries()));
    std::string hex;
    for (const unsigned char b : readBytes(good)) {
        static constexpr char kDigits[] = "0123456789abcdef";
        hex.push_back(kDigits[b >> 4]);
        hex.push_back(kDigits[b & 0xf]);
    }
    std::remove(good.c_str());

    const std::string bad[] = {
        hex + "\n" + hex + "\n",
        "notes for the next sweep\n",
        "{\"v\":2,\"index\":0}\n",
        "",
    };
    const std::string path = tempPath("lines.journal");
    testutil::ScopedAddressSpaceCap cap;
    for (const std::string &bytes : bad) {
        writeBytes(path, bytes);
        EXPECT_TRUE(refused(path)) << bytes.substr(0, 40);
        EXPECT_EQ(readBytes(path), bytes);
    }
    std::remove(path.c_str());
}

TEST(Journal, DeeplyNestedLineIsRejectedNotACrash)
{
    // A file damaged into bracket soup, a million levels deep, is
    // refused like any other file that is not a container image, in
    // bounded stack and memory.
    constexpr std::size_t kDepth = 1'000'000;
    std::string objects;
    objects.reserve(kDepth * 5);
    for (std::size_t i = 0; i < kDepth; ++i)
        objects += "{\"a\":";

    const std::string path = tempPath("nested.journal");
    testutil::ScopedAddressSpaceCap cap;
    for (const std::string &bytes : {std::string(kDepth, '['), objects}) {
        writeBytes(path, bytes);
        EXPECT_TRUE(refused(path));
    }
    std::remove(path.c_str());
}

TEST(Journal, DamagedFileRunsNoErrorHook)
{
    // A damaged journal is the sweep's to refuse, not an error:
    // reading it must not go through fatal(), whose hook would write
    // a crash report for a run that is still healthy.
    const std::string path = tempPath("hook.journal");
    ASSERT_TRUE(exp::writeJournal(path, threeEntries()));
    std::string bytes = readBytes(path);
    bytes[bytes.size() / 2] ^= 0x10;
    writeBytes(path, bytes);

    int hooks = 0;
    setErrorHook([&](const char *, const std::string &) { ++hooks; });
    const bool flipped = refused(path);
    writeBytes(path, bytes.substr(0, bytes.size() - 2));
    const bool cut = refused(path);
    writeBytes(path, "{\"v\":2}\n");
    const bool text = refused(path);
    setErrorHook({});

    EXPECT_TRUE(flipped);
    EXPECT_TRUE(cut);
    EXPECT_TRUE(text);
    EXPECT_EQ(hooks, 0);
    std::remove(path.c_str());
}

TEST(Journal, OtherModelVersionIsReadAsEmptyWithOneWarning)
{
    // Re-seal a real journal's header under another model version:
    // the file is a journal, but its entries describe another model.
    const std::string path = tempPath("version.journal");
    ASSERT_TRUE(exp::writeJournal(path, threeEntries()));
    const std::string bytes = readBytes(path);
    const std::string ours = modelVersionString();
    const std::string other = "s64v-0.0";
    const std::size_t headerEnd = 8 + 12 + ours.size() + 8;
    std::string header = bytes.substr(8, 8); // format version, count.
    for (unsigned i = 0; i < 4; ++i)
        header.push_back(static_cast<char>(other.size() >> (8 * i)));
    header += other;
    const std::uint64_t sum = ckpt::fnv1a(header.data(), header.size());
    for (unsigned i = 0; i < 8; ++i)
        header.push_back(static_cast<char>(sum >> (8 * i)));
    writeBytes(path, bytes.substr(0, 8) + header + bytes.substr(headerEnd));

    std::string sink;
    setLogSink(&sink);
    const auto read = exp::readJournal(path);
    setLogSink(nullptr);
    ASSERT_TRUE(read);
    EXPECT_TRUE(read->empty());
    EXPECT_NE(sink.find("'s64v-0.0'"), std::string::npos) << sink;
    EXPECT_EQ(sink.find("warn: "), sink.rfind("warn: ")) << sink;
    std::remove(path.c_str());
}

TEST(Journal, DurabilityFlagsParse)
{
    const char *argv[] = {"sim",
                          "--journal=sweep.journal",
                          "--checkpoint-at=100000",
                          "--checkpoint-out=run.ckpt",
                          "--checkpoint-stop",
                          "--restore=old.ckpt"};
    std::vector<std::string> rest;
    const obs::ObsOptions o = obs::parseObsArgs(6, argv, &rest);
    EXPECT_TRUE(rest.empty());
    EXPECT_EQ(o.journalPath, "sweep.journal");
    EXPECT_FALSE(o.resume);
    EXPECT_EQ(o.checkpointAt, 100000u);
    EXPECT_EQ(o.checkpointOut, "run.ckpt");
    EXPECT_TRUE(o.checkpointStop);
    EXPECT_EQ(o.restorePath, "old.ckpt");

    // --resume=<path> names the journal and turns resumption on; a
    // bare --resume names no journal and is not a run flag.
    const char *argv2[] = {"sim", "--resume=sweep.journal", "--resume"};
    const obs::ObsOptions r = obs::parseObsArgs(3, argv2, &rest);
    EXPECT_TRUE(r.resume);
    EXPECT_EQ(r.journalPath, "sweep.journal");
    EXPECT_EQ(rest, std::vector<std::string>{"--resume"});
}

} // namespace
} // namespace s64v
