/**
 * @file
 * Tests for trace files (trace/trace_io.hh): a trace round-trips
 * through its snapshot-container image, and every damaged or forged
 * file — a flipped bit, a truncation, another layout, a record count
 * or record the model cannot represent behind valid checksums, a
 * file in the raw layout older builds wrote — is refused by a
 * fatal() naming the file.
 */

#include "trace/trace_io.hh"

#include <unistd.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/snapshot.hh"
#include "common/logging.hh"

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

std::vector<TraceRecord>
sampleRecords(int records)
{
    std::vector<TraceRecord> recs;
    for (int i = 0; i < records; ++i) {
        TraceRecord r;
        r.pc = 0x1000 + 4 * i;
        r.cls = (i % 4 == 1) ? InstrClass::Load : InstrClass::IntAlu;
        if (r.cls == InstrClass::Load) {
            r.ea = 0x8000 + 8 * i;
            r.size = 8;
        }
        recs.push_back(r);
    }
    return recs;
}

/** Write a small valid trace file and return its path. */
std::string
writeSampleTrace(const char *name, int records = 10)
{
    InstrTrace t("sample");
    for (const TraceRecord &r : sampleRecords(records))
        t.append(r);
    const std::string path = tempPath(name);
    writeTraceFile(path, t);
    return path;
}

/**
 * Seal @p recs into a trace image at @p path in writeTraceFile()'s
 * layout, but with the layout number and record count given: valid
 * checksums around whatever values a forger chose.
 */
void
writeSealedTrace(const std::string &path,
                 const std::vector<TraceRecord> &recs,
                 std::uint64_t count,
                 std::uint32_t layout = kTraceFileLayout)
{
    ckpt::SnapshotWriter w;
    ckpt::Archive ar(w);
    ar.section("trace");
    ar.u32(layout);
    std::string name = "forged";
    ar.str(name);
    ar.u64(count);
    w.putBytes(recs.data(), recs.size() * sizeof(TraceRecord));
    w.writeFile(path, "forged");
}

/** readTraceFile(@p path)'s fatal() message, or "" if it loaded. */
std::string
readError(const std::string &path)
{
    ScopedThrowOnError guard;
    try {
        (void)readTraceFile(path);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

std::vector<unsigned char>
readBytes(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    std::vector<unsigned char> bytes(
        static_cast<std::size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::fclose(f);
    return bytes;
}

void
writeBytes(const std::string &path,
           const std::vector<unsigned char> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (!bytes.empty()) { // fwrite must not see the empty vector's null.
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
    }
    std::fclose(f);
}

TEST(TraceIo, RoundTrip)
{
    InstrTrace t("TPC-C");
    for (int i = 0; i < 100; ++i) {
        TraceRecord r;
        r.pc = 0x1000 + 4 * i;
        r.cls = (i % 3 == 0) ? InstrClass::Load : InstrClass::IntAlu;
        if (r.cls == InstrClass::Load) {
            r.ea = 0x2000 + 8 * i;
            r.size = 8;
        }
        r.dst = static_cast<RegId>(i % 24 + 8);
        t.append(r);
    }

    const std::string path = tempPath("roundtrip.s64vtrc");
    writeTraceFile(path, t);
    const InstrTrace back = readTraceFile(path);

    ASSERT_EQ(back.size(), t.size());
    EXPECT_EQ(back.workloadName(), "TPC-C");
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(back[i].pc, t[i].pc);
        EXPECT_EQ(back[i].cls, t[i].cls);
        EXPECT_EQ(back[i].ea, t[i].ea);
        EXPECT_EQ(back[i].dst, t[i].dst);
    }
    std::remove(path.c_str());
}

TEST(TraceIo, EmptyTrace)
{
    InstrTrace t("empty");
    const std::string path = tempPath("empty.s64vtrc");
    writeTraceFile(path, t);
    const InstrTrace back = readTraceFile(path);
    EXPECT_TRUE(back.empty());
    EXPECT_EQ(back.workloadName(), "empty");
    std::remove(path.c_str());
}

TEST(TraceIo, MissingFileIsFatal)
{
    setThrowOnError(true);
    EXPECT_THROW(readTraceFile("/nonexistent/zzz.trc"),
                 std::runtime_error);
    setThrowOnError(false);
}

TEST(TraceIo, BadMagicIsFatal)
{
    // The raw layout older builds wrote: the "S64VTRC1" magic,
    // version 1, a reserved word, the record count and a 64-byte
    // workload name, then the records. It is no container image.
    const std::string path = tempPath("oldlayout.s64vtrc");
    const std::vector<TraceRecord> recs = sampleRecords(10);
    std::vector<unsigned char> img(88);
    const std::uint64_t magic = 0x5336345654524331ull;
    const std::uint32_t version = 1;
    const std::uint64_t count = recs.size();
    std::memcpy(&img[0], &magic, sizeof magic);
    std::memcpy(&img[8], &version, sizeof version);
    std::memcpy(&img[16], &count, sizeof count);
    std::memcpy(&img[24], "sample", 6);
    const auto *raw = reinterpret_cast<const unsigned char *>(recs.data());
    img.insert(img.end(), raw, raw + recs.size() * sizeof(TraceRecord));
    writeBytes(path, img);

    const std::string err = readError(path);
    EXPECT_NE(err.find("trace file '" + path + "': bad magic"),
              std::string::npos)
        << err;
    std::remove(path.c_str());
}

TEST(TraceIo, TruncatedRecordsAreFatal)
{
    InstrTrace t("x");
    for (int i = 0; i < 10; ++i) {
        TraceRecord r;
        r.pc = 4 * i;
        t.append(r);
    }
    const std::string path = tempPath("trunc.s64vtrc");
    writeTraceFile(path, t);

    // Truncate the file in the middle of the record array.
    const std::size_t size = readBytes(path).size();
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(::ftruncate(::fileno(f),
                          static_cast<off_t>(size -
                                             3 * sizeof(TraceRecord) - 5)),
              0);
    std::fclose(f);

    const std::string err = readError(path);
    EXPECT_NE(err.find("trace file '" + path + "'"), std::string::npos)
        << err;
    std::remove(path.c_str());
}

TEST(TraceIo, RecordCountMismatchIsFatal)
{
    // A sealed count that disagrees with the records held: more runs
    // into the section end without sizing anything from the count,
    // fewer leaves records unread.
    const std::string path = tempPath("badcount.s64vtrc");
    const std::vector<TraceRecord> recs = sampleRecords(10);
    testutil::ScopedAddressSpaceCap cap;
    const struct
    {
        std::uint64_t count;
        const char *why;
    } forgeries[] = {
        {std::uint64_t{1} << 60, "read past end of section"},
        {11, "read past end of section"},
        {9, "section not fully consumed"},
    };
    for (const auto &f : forgeries) {
        writeSealedTrace(path, recs, f.count);
        const std::string err = readError(path);
        EXPECT_NE(err.find("trace file '" + path + "': " + f.why),
                  std::string::npos)
            << f.count << " records claimed: " << err;
    }
    std::remove(path.c_str());
}

TEST(TraceIo, UnsupportedVersionIsFatal)
{
    const std::string path = tempPath("badver.s64vtrc");
    const std::vector<TraceRecord> recs = sampleRecords(10);
    writeSealedTrace(path, recs, recs.size());
    EXPECT_EQ(readError(path), "") << "the forger's layout is stale";

    writeSealedTrace(path, recs, recs.size(), kTraceFileLayout + 1);
    const std::string err = readError(path);
    EXPECT_NE(err.find("unsupported trace layout " +
                       std::to_string(kTraceFileLayout + 1) +
                       " (this build reads layout " +
                       std::to_string(kTraceFileLayout) + ")"),
              std::string::npos)
        << err;
    std::remove(path.c_str());
}

TEST(TraceIo, OutOfRangeInstructionClassIsFatal)
{
    // Valid checksums do not make a record valid: the reader checks
    // every record before the model can index an array with it.
    const std::string path = tempPath("badcls.s64vtrc");
    std::vector<TraceRecord> recs = sampleRecords(10);
    recs[3].cls = static_cast<InstrClass>(0xff);
    writeSealedTrace(path, recs, recs.size());

    const std::string err = readError(path);
    EXPECT_NE(err.find("trace file '" + path + "': record 3 "),
              std::string::npos)
        << err;
    std::remove(path.c_str());
}

TEST(TraceIo, OutOfRangeRegisterIsFatal)
{
    const std::string path = tempPath("badreg.s64vtrc");
    std::vector<TraceRecord> recs = sampleRecords(10);
    recs[5].dst = 200; // not kNoReg, not a real architectural register.
    writeSealedTrace(path, recs, recs.size());

    const std::string err = readError(path);
    EXPECT_NE(err.find("trace file '" + path + "': record 5 "),
              std::string::npos)
        << err;
    std::remove(path.c_str());
}

TEST(TraceIoDeath, TruncatedFileExitsWithStatusOne)
{
    // The process-level contract: corrupt input is a user error, so
    // the reader must leave via fatal() -> exit(1), not a crash.
    const std::string path = writeSampleTrace("deathtrunc.s64vtrc");
    const std::size_t size = readBytes(path).size();
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(::ftruncate(::fileno(f),
                          static_cast<off_t>(size - sizeof(TraceRecord) -
                                             7)),
              0);
    std::fclose(f);

    setThrowOnError(false);
    EXPECT_EXIT((void)readTraceFile(path),
                ::testing::ExitedWithCode(1), "fatal: trace file");
    std::remove(path.c_str());
}

TEST(TraceIo, BitFlipFuzzNeverCrashesOrHangs)
{
    // Every single-bit flip and every truncation of a 64-record trace
    // file is refused by a fatal() naming the file: none crashes,
    // hangs, or loads a different trace.
    const std::string path = writeSampleTrace("fuzzbase.s64vtrc", 64);
    const std::vector<unsigned char> original = readBytes(path);
    const std::string mutated = tempPath("fuzzmut.s64vtrc");
    const std::string named = "trace file '" + mutated + "'";

    testutil::ScopedAddressSpaceCap cap;
    std::size_t accepted = 0;
    std::string first;
    const auto refused = [&](const std::vector<unsigned char> &img,
                             const std::string &what) {
        writeBytes(mutated, img);
        if (readError(mutated).find(named) != std::string::npos)
            return;
        if (accepted++ == 0)
            first = what;
    };
    for (std::size_t bit = 0; bit < original.size() * 8; ++bit) {
        std::vector<unsigned char> img = original;
        img[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
        refused(img, "flip of bit " + std::to_string(bit));
    }
    for (std::size_t len = 0; len < original.size(); ++len) {
        refused({original.begin(),
                 original.begin() + static_cast<long>(len)},
                "prefix of " + std::to_string(len) + " bytes");
    }
    EXPECT_EQ(accepted, 0u) << "first accepted: " << first;
    std::remove(path.c_str());
    std::remove(mutated.c_str());
}

} // namespace
} // namespace s64v
