#include "trace/trace_io.hh"

#include <unistd.h>

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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

/** Write a small valid trace file and return its path. */
std::string
writeSampleTrace(const char *name, int records = 10)
{
    InstrTrace t("sample");
    for (int i = 0; i < records; ++i) {
        TraceRecord r;
        r.pc = 0x1000 + 4 * i;
        r.cls = (i % 4 == 1) ? InstrClass::Load : InstrClass::IntAlu;
        if (r.cls == InstrClass::Load) {
            r.ea = 0x8000 + 8 * i;
            r.size = 8;
        }
        t.append(r);
    }
    const std::string path = tempPath(name);
    writeTraceFile(path, t);
    return path;
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
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
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
    const std::string path = tempPath("badmagic.s64vtrc");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[100] = "not a trace file at all";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);

    setThrowOnError(true);
    EXPECT_THROW(readTraceFile(path), std::runtime_error);
    setThrowOnError(false);
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
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(::ftruncate(::fileno(f),
                          sizeof(TraceFileHeader) +
                              3 * sizeof(TraceRecord) + 5),
              0);
    std::fclose(f);

    setThrowOnError(true);
    EXPECT_THROW(readTraceFile(path), std::runtime_error);
    setThrowOnError(false);
    std::remove(path.c_str());
}

TEST(TraceIo, RecordCountMismatchIsFatal)
{
    const std::string path = writeSampleTrace("badcount.s64vtrc");
    std::vector<unsigned char> img = readBytes(path);
    // Claim far more records than the file holds; the reader must
    // reject the header instead of trusting it.
    const std::size_t off = offsetof(TraceFileHeader, recordCount);
    img[off] += 100;
    writeBytes(path, img);

    setThrowOnError(true);
    EXPECT_THROW(readTraceFile(path), std::runtime_error);
    setThrowOnError(false);
    std::remove(path.c_str());
}

TEST(TraceIo, UnsupportedVersionIsFatal)
{
    const std::string path = writeSampleTrace("badver.s64vtrc");
    std::vector<unsigned char> img = readBytes(path);
    img[offsetof(TraceFileHeader, version)] = 99;
    writeBytes(path, img);

    setThrowOnError(true);
    EXPECT_THROW(readTraceFile(path), std::runtime_error);
    setThrowOnError(false);
    std::remove(path.c_str());
}

TEST(TraceIo, NonzeroReservedFieldIsFatal)
{
    const std::string path = writeSampleTrace("badres.s64vtrc");
    std::vector<unsigned char> img = readBytes(path);
    img[offsetof(TraceFileHeader, reserved)] = 1;
    writeBytes(path, img);

    setThrowOnError(true);
    EXPECT_THROW(readTraceFile(path), std::runtime_error);
    setThrowOnError(false);
    std::remove(path.c_str());
}

TEST(TraceIo, UnprintableWorkloadNameIsFatal)
{
    const std::string path = writeSampleTrace("badname.s64vtrc");
    std::vector<unsigned char> img = readBytes(path);
    img[offsetof(TraceFileHeader, workloadName)] = 0x01;
    writeBytes(path, img);

    setThrowOnError(true);
    EXPECT_THROW(readTraceFile(path), std::runtime_error);
    setThrowOnError(false);
    std::remove(path.c_str());
}

TEST(TraceIo, OutOfRangeInstructionClassIsFatal)
{
    const std::string path = writeSampleTrace("badcls.s64vtrc");
    std::vector<unsigned char> img = readBytes(path);
    const std::size_t off = sizeof(TraceFileHeader) +
                            3 * sizeof(TraceRecord) +
                            offsetof(TraceRecord, cls);
    img[off] = 0xff;
    writeBytes(path, img);

    setThrowOnError(true);
    EXPECT_THROW(readTraceFile(path), std::runtime_error);
    setThrowOnError(false);
    std::remove(path.c_str());
}

TEST(TraceIo, OutOfRangeRegisterIsFatal)
{
    const std::string path = writeSampleTrace("badreg.s64vtrc");
    std::vector<unsigned char> img = readBytes(path);
    const std::size_t off = sizeof(TraceFileHeader) +
                            5 * sizeof(TraceRecord) +
                            offsetof(TraceRecord, dst);
    img[off] = 200; // not kNoReg, not a real architectural register.
    writeBytes(path, img);

    setThrowOnError(true);
    EXPECT_THROW(readTraceFile(path), std::runtime_error);
    setThrowOnError(false);
    std::remove(path.c_str());
}

TEST(TraceIoDeath, TruncatedFileExitsWithStatusOne)
{
    // The process-level contract: corrupt input is a user error, so
    // the reader must leave via fatal() -> exit(1), not a crash.
    const std::string path = writeSampleTrace("deathtrunc.s64vtrc");
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(::ftruncate(::fileno(f),
                          sizeof(TraceFileHeader) +
                              2 * sizeof(TraceRecord) + 7),
              0);
    std::fclose(f);

    setThrowOnError(false);
    EXPECT_EXIT((void)readTraceFile(path),
                ::testing::ExitedWithCode(1), "fatal:");
    std::remove(path.c_str());
}

TEST(TraceIo, BitFlipFuzzNeverCrashesOrHangs)
{
    // Flip one bit at every byte offset of a valid trace file. Each
    // mutated file must either parse (the flipped byte was benign,
    // e.g. a PC bit) or raise a clean fatal() — never crash or hang.
    const std::string path = writeSampleTrace("fuzzbase.s64vtrc", 8);
    const std::vector<unsigned char> original = readBytes(path);
    const std::string mutated = tempPath("fuzzmut.s64vtrc");

    setThrowOnError(true);
    testutil::ScopedAddressSpaceCap cap;
    std::size_t rejected = 0;
    for (std::size_t off = 0; off < original.size(); ++off) {
        std::vector<unsigned char> img = original;
        img[off] ^= 0x80;
        writeBytes(mutated, img);
        try {
            (void)readTraceFile(mutated);
        } catch (const std::runtime_error &) {
            ++rejected;
        }
    }
    setThrowOnError(false);
    // Flips in the magic alone guarantee some rejections; seeing none
    // would mean the validation is not running at all.
    EXPECT_GT(rejected, 0u);
    std::remove(path.c_str());
    std::remove(mutated.c_str());
}

} // namespace
} // namespace s64v
