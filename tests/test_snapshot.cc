/**
 * @file
 * Durability tests for the snapshot container (ckpt/snapshot.hh) and
 * the whole-system checkpoint orchestrator (ckpt/checkpoint.hh): the
 * Archive must round-trip every value exactly and check what it reads,
 * every corruption of a
 * snapshot image (bit flips, truncations, a damaged checkpoint file)
 * must be thrown by the reader as a SnapshotError, which the restore
 * turns into a clean fatal() naming the file rather than a crash, and
 * a run restored from a checkpoint must complete bit-identically — same
 * SimResult, same stats JSON, same golden-checker verdict — to a run
 * that was never interrupted, uniprocessor and 4P alike.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.hh"
#include "ckpt/snapshot.hh"
#include "common/logging.hh"
#include "golden/checker.hh"
#include "model/fingerprint.hh"
#include "model/params.hh"
#include "obs/stats_export.hh"
#include "sim/system.hh"
#include "workload/generator.hh"
#include "workload/workloads.hh"

#include "address_space_cap.hh"
#include "run_util.hh"

namespace s64v
{
namespace
{

using namespace testutil;

// --- Snapshot container -------------------------------------------

/** One value of every kind the Archive codes, in two sections. */
struct Sample
{
    std::uint8_t byte = 0;
    std::uint32_t word = 0;
    std::uint64_t dword = 0;
    bool flag = false;
    double third = 0.0;
    std::string text;
    std::vector<std::uint64_t> vec;
    std::uint64_t negative = 0;

    void alpha(ckpt::Archive &ar)
    {
        ar.u8(byte);
        ar.u32(word);
        ar.u64(dword);
        ar.boolean(flag);
        ar.f64(third);
        ar.str(text);
    }
    void beta(ckpt::Archive &ar)
    {
        ar.u64Vec(vec);
        ar.u64(negative);
    }
};

std::vector<std::uint8_t>
sampleImage()
{
    Sample s;
    s.byte = 0xab;
    s.word = 0xdeadbeefu;
    s.dword = 0x0123456789abcdefull;
    s.flag = true;
    s.third = 1.0 / 3.0;
    s.text = "hello snapshot";
    s.vec = {1, 2, 3, 0xffffffffffffffffull};
    s.negative = static_cast<std::uint64_t>(std::int64_t{-42});
    ckpt::SnapshotWriter w;
    ckpt::Archive ar(w);
    ar.section("alpha");
    s.alpha(ar);
    ar.section("beta");
    s.beta(ar);
    return w.finish("s64v-test");
}

TEST(Snapshot, TypedValuesRoundTripExactly)
{
    ckpt::SnapshotReader r =
        ckpt::SnapshotReader::fromBytes(sampleImage());
    EXPECT_EQ(r.modelVersion(), "s64v-test");
    EXPECT_TRUE(r.hasSection("alpha"));
    EXPECT_TRUE(r.hasSection("beta"));
    EXPECT_FALSE(r.hasSection("gamma"));

    // Sections may be read in any order, each consumed exactly.
    Sample s;
    ckpt::Archive ar(r);
    ar.section("beta");
    s.beta(ar);
    ar.section("alpha");
    s.alpha(ar);
    ar.endSections();
    EXPECT_EQ(s.vec, (std::vector<std::uint64_t>{
                         1, 2, 3, 0xffffffffffffffffull}));
    EXPECT_EQ(static_cast<std::int64_t>(s.negative), -42);
    EXPECT_EQ(s.byte, 0xab);
    EXPECT_EQ(s.word, 0xdeadbeefu);
    EXPECT_EQ(s.dword, 0x0123456789abcdefull);
    EXPECT_TRUE(s.flag);
    EXPECT_EQ(s.third, 1.0 / 3.0); // bit-exact, not approx.
    EXPECT_EQ(s.text, "hello snapshot");
}

TEST(Snapshot, ArchiveChecksWhatItReads)
{
    // Each check writes the configured value and refuses another on a
    // read, naming what differs; a write checks nothing.
    const auto image = [](const std::function<void(ckpt::Archive &)> &f) {
        ckpt::SnapshotWriter w;
        ckpt::Archive ar(w);
        ar.section("s");
        f(ar);
        return w.finish("");
    };
    const auto readError =
        [](std::vector<std::uint8_t> bytes,
           const std::function<void(ckpt::Archive &)> &f) -> std::string {
        ckpt::SnapshotReader r =
            ckpt::SnapshotReader::fromBytes(std::move(bytes));
        ckpt::Archive ar(r);
        try {
            ar.section("s");
            f(ar);
            ar.endSections();
        } catch (const ckpt::SnapshotError &e) {
            return e.what();
        }
        return "";
    };
    const auto written = image([](ckpt::Archive &ar) {
        ar.layout("sample", 3);
        ar.fixed32(4, "four");
        ar.fixed64(8, "eight");
        ar.tag("name", "the name");
        ar.require(false, "a write checks nothing");
        std::vector<std::uint64_t> v = {1, 2, 3};
        ar.list(v, [&](std::uint64_t &x) { ar.u64(x); });
    });
    const auto walk = [](std::uint32_t layout, std::uint32_t four,
                         std::uint64_t eight, const char *name,
                         std::uint64_t max) {
        return [=](ckpt::Archive &ar) {
            ar.layout("sample", layout);
            ar.fixed32(four, "four");
            ar.fixed64(eight, "eight");
            ar.tag(name, "the name");
            std::vector<std::uint64_t> v = {9};
            ar.list(v, [&](std::uint64_t &x) { ar.u64(x); }, max,
                    "too many");
            EXPECT_EQ(v, (std::vector<std::uint64_t>{1, 2, 3}));
        };
    };
    EXPECT_EQ(readError(written, walk(3, 4, 8, "name", 3)), "");
    EXPECT_NE(readError(written, walk(2, 4, 8, "name", 3))
                  .find("unsupported sample layout 3 (this build reads "
                        "layout 2) (section 's')"),
              std::string::npos);
    for (const auto &[w, what] :
         {std::pair{walk(3, 5, 8, "name", 3), "four"},
          std::pair{walk(3, 4, 9, "name", 3), "eight"},
          std::pair{walk(3, 4, 8, "other", 3), "the name"},
          std::pair{walk(3, 4, 8, "name", 2), "too many"}}) {
        EXPECT_EQ(readError(written, w),
                  std::string("incompatible state: ") + what +
                      " (section 's')");
    }

    // A list reads its elements one at a time: a forged length of
    // 2^60 runs into the section end instead of sizing anything.
    const auto forged = image([](ckpt::Archive &ar) {
        std::uint64_t n = std::uint64_t{1} << 60;
        ar.u64(n);
    });
    testutil::ScopedAddressSpaceCap cap;
    EXPECT_NE(readError(forged,
                        [](ckpt::Archive &ar) {
                            std::vector<std::uint64_t> v;
                            ar.list(v, [&](std::uint64_t &x) { ar.u64(x); });
                        })
                  .find("read past end of section"),
              std::string::npos);
}

TEST(Snapshot, UnderAndOverConsumptionAreRejected)
{
    std::vector<std::uint64_t> v;
    {
        ckpt::SnapshotReader r =
            ckpt::SnapshotReader::fromBytes(sampleImage());
        ckpt::Archive ar(r);
        ar.section("beta");
        EXPECT_THROW(
            {
                // Only 5*8 + 8 bytes exist; the second read takes -42
                // as a vector length, which runs past the section end.
                ar.u64Vec(v);
                ar.u64Vec(v);
            },
            std::runtime_error);
    }
    {
        ckpt::SnapshotReader r =
            ckpt::SnapshotReader::fromBytes(sampleImage());
        ckpt::Archive ar(r);
        ar.section("beta");
        ar.u64Vec(v);
        // -42 left unread: the layout mismatch must be loud.
        EXPECT_THROW(ar.endSections(), std::runtime_error);
    }
    {
        ckpt::SnapshotReader r =
            ckpt::SnapshotReader::fromBytes(sampleImage());
        ckpt::Archive ar(r);
        EXPECT_THROW(ar.section("gamma"), std::runtime_error);
    }
}

TEST(Snapshot, EveryBitFlipIsDetectedNeverACrash)
{
    const std::vector<std::uint8_t> good = sampleImage();
    const ckpt::SnapshotReader ref =
        ckpt::SnapshotReader::fromBytes(good);

    testutil::ScopedAddressSpaceCap cap;
    std::size_t rejected = 0;
    for (std::size_t bit = 0; bit < good.size() * 8; ++bit) {
        std::vector<std::uint8_t> bad = good;
        bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        // A damaged image must either fail validation with a clean
        // diagnostic, or — when the flip lands in an unchecksummed
        // header string (model version, a section name) — still parse
        // into something visibly different from the original, which
        // the restore-side identity checks then reject. What it must
        // never do is crash or reproduce the pristine snapshot.
        try {
            ckpt::SnapshotReader r = ckpt::SnapshotReader::fromBytes(
                std::move(bad));
            EXPECT_TRUE(r.modelVersion() != ref.modelVersion() ||
                        !r.hasSection("alpha") ||
                        !r.hasSection("beta"))
                << "undetected flip of bit " << bit;
        } catch (const std::runtime_error &) {
            ++rejected;
        }
    }
    // The checksummed payload bytes are the bulk of the image, so the
    // overwhelming majority of flips must be hard rejections.
    EXPECT_GT(rejected, good.size() * 8 / 2);
}

TEST(Snapshot, HugeSectionCountIsRejectedBeforeAllocating)
{
    // The count field follows the 8-byte magic and 4-byte format
    // version. A high-bit value must be refused by the size bound,
    // not attempted as a multi-gigabyte reserve.
    std::vector<std::uint8_t> bad = sampleImage();
    constexpr std::size_t kCountOffset = 12;
    const std::uint8_t huge[4] = {0x00, 0x00, 0x00, 0x80};
    std::copy(huge, huge + 4, bad.begin() + kCountOffset);

    try {
        ckpt::SnapshotReader::fromBytes(std::move(bad));
        FAIL() << "a 0x80000000 section count parsed";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("section count"),
                  std::string::npos)
            << e.what();
    }
}

/**
 * Offsets into sampleImage()'s header: 8-byte magic, 4-byte format
 * version, 4-byte section count, the model version "s64v-test" with
 * its 4-byte length, then the 8-byte header checksum.
 */
constexpr std::size_t kHeaderStart = 8;
constexpr std::size_t kHeaderSumAt = kHeaderStart + 12 + 9;

/** Overwrite @p n little-endian bytes at @p at, then re-seal. */
void
forgeHeader(std::vector<std::uint8_t> &image, std::size_t at,
            std::uint64_t v, unsigned n)
{
    for (unsigned i = 0; i < n; ++i)
        image[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    const std::uint64_t sum = ckpt::fnv1a(image.data() + kHeaderStart,
                                          kHeaderSumAt - kHeaderStart);
    for (unsigned i = 0; i < 8; ++i)
        image[kHeaderSumAt + i] = static_cast<std::uint8_t>(sum >> (8 * i));
}

std::string
parseError(std::vector<std::uint8_t> image)
{
    try {
        ckpt::SnapshotReader::fromBytes(std::move(image));
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "parsed";
}

TEST(Snapshot, EveryHeaderByteFlipIsAHeaderChecksumError)
{
    // Format version, section count, model version length and bytes,
    // and the checksum itself: any damage is reported as a damaged
    // header before the count sizes anything. (The magic is checked
    // on its own.)
    const std::vector<std::uint8_t> good = sampleImage();
    testutil::ScopedAddressSpaceCap cap;
    for (std::size_t pos = kHeaderStart; pos < kHeaderSumAt + 8; ++pos) {
        for (std::uint8_t mask : {0x01, 0x80, 0xff}) {
            std::vector<std::uint8_t> bad = good;
            bad[pos] ^= mask;
            EXPECT_NE(parseError(std::move(bad)).find("header checksum"),
                      std::string::npos)
                << "byte " << pos << " ^ " << unsigned{mask};
        }
    }
}

TEST(Snapshot, ForgedHeadersWithValidChecksumsAreStillRefused)
{
    testutil::ScopedAddressSpaceCap cap;
    // A crafted section count still meets the remaining-bytes bound
    // before anything is reserved.
    std::vector<std::uint8_t> huge = sampleImage();
    forgeHeader(huge, kHeaderStart + 4, 0x80000000u, 4);
    EXPECT_NE(parseError(huge).find("section count 2147483648 exceeds"),
              std::string::npos)
        << parseError(huge);
    // Another format version is named as such, the previous ones too.
    for (std::uint32_t version : {1u, 2u, 3u, 4u}) {
        std::vector<std::uint8_t> old = sampleImage();
        forgeHeader(old, kHeaderStart, version, 4);
        EXPECT_NE(parseError(old).find("unsupported format version " +
                                       std::to_string(version)),
                  std::string::npos)
            << parseError(old);
    }
}

TEST(Snapshot, AddressSpaceCapRefusesAnOversizedAllocation)
{
    // The fuzz loops below rely on the cap turning an oversized
    // allocation into std::bad_alloc whatever the host's overcommit
    // policy; 3 GiB is past its 1 GiB of headroom. reserve() only
    // maps, so an ineffective cap costs no resident memory.
    testutil::ScopedAddressSpaceCap cap;
    if (!cap.active())
        GTEST_SKIP() << "address-space cap not applied in this build";
    std::vector<char> v;
    EXPECT_THROW(v.reserve(std::size_t{3} << 30), std::bad_alloc);
    EXPECT_EQ(v.capacity(), 0u);
}

TEST(Snapshot, EveryTruncationIsRejectedCleanly)
{
    const std::vector<std::uint8_t> good = sampleImage();
    testutil::ScopedAddressSpaceCap cap;
    for (std::size_t len = 0; len < good.size(); ++len) {
        std::vector<std::uint8_t> bad(good.begin(),
                                      good.begin() +
                                          static_cast<long>(len));
        EXPECT_THROW(ckpt::SnapshotReader::fromBytes(std::move(bad)),
                     std::runtime_error)
            << "prefix of " << len << " bytes parsed";
    }
    // Appended garbage is equally fatal.
    std::vector<std::uint8_t> padded = good;
    padded.push_back(0);
    EXPECT_THROW(
        ckpt::SnapshotReader::fromBytes(std::move(padded)),
        std::runtime_error);
}

// --- Whole-system checkpoint/restore ------------------------------

TEST(Checkpoint, UpSpecRestoreIsBitIdentical)
{
    constexpr std::size_t kInstrs = 20000;
    SystemParams sp = sparc64vBase().sys;
    sp.warmupInstrs = kInstrs / 5;
    const std::vector<InstrTrace> traces =
        makeTraces(specint95Profile(), 1, kInstrs);

    const RunOutcome base = runFull(sp, traces);
    ASSERT_FALSE(base.res.hitCycleCap);
    ASSERT_EQ(checkReplay(traces[0], base.res), "");
    ASSERT_GT(base.res.warmupEndCycle, 0u);

    // One cut inside the warm-up window, one inside the measurement
    // window: both the pre-reset and post-reset bookkeeping must
    // survive the round trip.
    const Cycle cuts[2] = {
        base.res.warmupEndCycle / 2,
        base.res.warmupEndCycle + base.res.cycles / 2};
    for (const Cycle at : cuts) {
        const std::string path = tempPath("up_spec.ckpt");
        const RunOutcome resumed =
            runThroughCheckpoint(sp, traces, at, path);
        EXPECT_EQ(diffSim(base.res, resumed.res), "");
        EXPECT_EQ(base.stats, resumed.stats)
            << "stats JSON diverged for a checkpoint at cycle " << at;
        EXPECT_EQ(checkReplay(traces[0], resumed.res), "");
        EXPECT_EQ(checkAgainstGolden(traces[0], resumed.res),
                  checkAgainstGolden(traces[0], base.res));
        std::remove(path.c_str());
    }
}

TEST(Checkpoint, SmpTpccRestoreIsBitIdentical)
{
    constexpr std::size_t kInstrsPerCpu = 6000;
    SystemParams sp = sparc64vBase(4).sys;
    sp.warmupInstrs = kInstrsPerCpu / 5;
    const std::vector<InstrTrace> traces =
        makeTraces(tpccProfile(), 4, kInstrsPerCpu);

    const RunOutcome base = runFull(sp, traces);
    ASSERT_FALSE(base.res.hitCycleCap);
    ASSERT_EQ(base.res.cores.size(), 4u);
    for (CpuId cpu = 0; cpu < 4; ++cpu)
        ASSERT_EQ(checkReplay(traces[cpu], base.res, cpu), "");

    const std::string path = tempPath("smp_tpcc.ckpt");
    const Cycle at = base.res.warmupEndCycle + base.res.cycles / 2;
    const RunOutcome resumed =
        runThroughCheckpoint(sp, traces, at, path);
    EXPECT_EQ(diffSim(base.res, resumed.res), "");
    EXPECT_EQ(base.stats, resumed.stats);
    for (CpuId cpu = 0; cpu < 4; ++cpu)
        EXPECT_EQ(checkReplay(traces[cpu], resumed.res, cpu), "");
    std::remove(path.c_str());
}

TEST(Checkpoint, MidRunCheckpointDoesNotPerturbTheRun)
{
    constexpr std::size_t kInstrs = 12000;
    const SystemParams sp = sparc64vBase().sys;
    const std::vector<InstrTrace> traces =
        makeTraces(specint2000Profile(), 1, kInstrs);
    const RunOutcome base = runFull(sp, traces);

    // Checkpoint without stopping: the run carries on to completion
    // and must be unaffected by the snapshot being cut mid-flight.
    const std::string path = tempPath("passthrough.ckpt");
    SystemParams cp = sp;
    cp.checkpoint.atCycle = base.res.cycles / 2;
    cp.checkpoint.path = path;
    cp.checkpoint.stopAfter = false;
    System sys(cp);
    attachAll(sys, traces);
    const SimResult through = sys.run();
    EXPECT_FALSE(through.stoppedAtCheckpoint);
    EXPECT_EQ(diffSim(base.res, through), "");
    EXPECT_EQ(base.stats, obs::exportStatsJson(sys.root()));

    // And the file it left behind is itself a valid resume point.
    System resumed(sp);
    attachAll(resumed, traces);
    ckpt::restoreSystemCheckpoint(resumed, path);
    EXPECT_EQ(diffSim(base.res, resumed.run()), "");
    std::remove(path.c_str());
}

TEST(Checkpoint, MismatchedConfigurationIsRejected)
{
    constexpr std::size_t kInstrs = 8000;
    const std::vector<InstrTrace> traces =
        makeTraces(tpccProfile(), 1, kInstrs);
    const std::string path = tempPath("mismatch.ckpt");

    SystemParams sp = sparc64vBase().sys;
    sp.checkpoint.atCycle = 2000;
    sp.checkpoint.path = path;
    sp.checkpoint.stopAfter = true;
    System writer(sp);
    attachAll(writer, traces);
    ASSERT_TRUE(writer.run().stoppedAtCheckpoint);

    ScopedThrowOnError guard;
    {
        // A different machine configuration must be rejected up
        // front: restoring a 4-wide snapshot into a 2-wide machine
        // can only diverge.
        System narrow(withIssueWidth(sparc64vBase(), 2).sys);
        attachAll(narrow, traces);
        EXPECT_THROW(ckpt::restoreSystemCheckpoint(narrow, path),
                     std::runtime_error);
    }
    {
        // Same machine, different workload: the per-CPU trace
        // identity hash must catch it.
        System other(sparc64vBase().sys);
        attachAll(other,
                  makeTraces(specint95Profile(), 1, kInstrs));
        EXPECT_THROW(ckpt::restoreSystemCheckpoint(other, path),
                     std::runtime_error);
    }
    std::remove(path.c_str());
}

TEST(Checkpoint, DamagedFileIsCaughtOnRestore)
{
    constexpr std::size_t kInstrs = 8000;
    const std::vector<InstrTrace> traces =
        makeTraces(tpccProfile(), 1, kInstrs);
    const std::string path = tempPath("corrupt.ckpt");

    SystemParams sp = sparc64vBase().sys;
    sp.checkpoint.atCycle = 2000;
    sp.checkpoint.path = path;
    sp.checkpoint.stopAfter = true;
    System writer(sp);
    attachAll(writer, traces);
    ASSERT_TRUE(writer.run().stoppedAtCheckpoint);

    // Damage one bit of the file on disk, as a failing disk would.
    std::vector<std::uint8_t> image;
    {
        std::ifstream in(path, std::ios::binary);
        image.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_FALSE(image.empty());
    image[4242 % image.size()] ^= 0x10;
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(image.data()),
                  static_cast<std::streamsize>(image.size()));
    }

    ScopedThrowOnError guard;
    System reader(sparc64vBase().sys);
    attachAll(reader, traces);
    EXPECT_THROW(ckpt::restoreSystemCheckpoint(reader, path),
                 std::runtime_error);
    std::remove(path.c_str());
}

/** The payload @p walk writes into a one-section snapshot. */
std::vector<std::uint8_t>
payloadOf(const std::function<void(ckpt::Archive &)> &walk)
{
    ckpt::SnapshotWriter w;
    ckpt::Archive ar(w);
    ar.section("s");
    walk(ar);
    const std::vector<std::uint8_t> image = w.finish("");
    // Magic, format/count/version-length words, header checksum; then
    // the section's name length, name and size; the checksum trails.
    constexpr std::size_t kPayloadAt = 8 + 12 + 8 + 4 + 1 + 8;
    return {image.begin() + kPayloadAt, image.end() - 8};
}

/**
 * Core 0's checkpoint section cut mid-run, with the offsets of the
 * parts a forgery patches (the order Core::checkpoint writes them).
 */
struct CoreSection
{
    std::vector<std::uint8_t> bytes;
    std::size_t fetchAt = 0;  ///< FetchUnit state.
    std::size_t lsqAt = 0;    ///< LoadStoreQueue state.
    std::size_t windowAt = 0; ///< InstrWindow state.
};

CoreSection
cutCoreSection(const SystemParams &sp,
               const std::vector<InstrTrace> &traces, Cycle at)
{
    const std::string path = tempPath("forge_source.ckpt");
    SystemParams cp = sp;
    cp.checkpoint.atCycle = at;
    cp.checkpoint.path = path;
    cp.checkpoint.stopAfter = true;
    System sys(cp);
    attachAll(sys, traces);
    EXPECT_TRUE(sys.run().stoppedAtCheckpoint);
    std::remove(path.c_str());

    Core &core = sys.core(0);
    CoreSection s;
    s.bytes = payloadOf([&](ckpt::Archive &ar) { core.checkpoint(ar); });
    s.fetchAt = payloadOf([&](ckpt::Archive &ar) {
                    core.bpred().checkpoint(ar);
                }).size();
    s.lsqAt = s.fetchAt + payloadOf([&](ckpt::Archive &ar) {
                              core.fetchUnit().checkpoint(ar);
                          }).size();
    const std::size_t rename_at =
        s.lsqAt + payloadOf([&](ckpt::Archive &ar) {
                      core.lsq().checkpoint(ar);
                  }).size();
    s.windowAt = rename_at + payloadOf([&](ckpt::Archive &ar) {
                                 core.renameUnit().checkpoint(ar);
                             }).size();
    return s;
}

/** Restore @p bytes as core 0 of a fresh system; the error or "". */
std::string
restoreCoreError(const SystemParams &sp,
                 const std::vector<InstrTrace> &traces,
                 const std::vector<std::uint8_t> &bytes)
{
    ckpt::SnapshotWriter w;
    w.beginSection("cpu0");
    w.putBytes(bytes.data(), bytes.size());
    ckpt::SnapshotReader r =
        ckpt::SnapshotReader::fromBytes(w.finish(modelVersionString()));
    System sys(sp);
    attachAll(sys, traces);
    ckpt::Archive ar(r);
    try {
        ar.section("cpu0");
        sys.core(0).checkpoint(ar);
        ar.endSections();
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

template <typename T>
void
poke(std::vector<std::uint8_t> &bytes, std::size_t at, T v)
{
    for (std::size_t i = 0; i < sizeof(T); ++i)
        bytes[at + i] = static_cast<std::uint8_t>(
            static_cast<std::uint64_t>(v) >> (8 * i));
}

template <typename T>
T
peek(const std::vector<std::uint8_t> &bytes, std::size_t at)
{
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
        v |= static_cast<std::uint64_t>(bytes[at + i]) << (8 * i);
    return static_cast<T>(v);
}

TEST(Checkpoint, ForgedCoreStateIsRefused)
{
    // A crafted core section carries valid checksums, so only the
    // restore's own bounds stand between its values and the model's
    // arrays. Each forgery must be a clean fatal() naming the field:
    // no allocation sized from it, no silent restore.
    constexpr std::size_t kInstrs = 6000;
    const std::vector<InstrTrace> traces =
        makeTraces(tpccProfile(), 1, kInstrs);
    const SystemParams sp = sparc64vBase().sys;
    SystemParams unified = sp;
    unified.core.unifiedRs = true;
    const CoreSection good = cutCoreSection(sp, traces, 3000);
    const CoreSection good1rs = cutCoreSection(unified, traces, 3000);

    // The layouts FetchUnit::checkpoint, LoadStoreQueue::checkpoint
    // and InstrWindow::checkpoint write: the fetch queue's held and
    // landed counts, then each held instruction, its 24-byte record,
    // landing cycle and two flags; each queue's count, then its
    // 33-byte entries (seq, address, flags, two cycles); a window
    // entry is 116 bytes after a 20-byte header.
    constexpr std::size_t kFetchedAt = 16;
    constexpr std::size_t kLsqEntry = 33, kLsqFlagsAt = 16;
    constexpr std::uint8_t kLsqCommitted = 2;
    constexpr std::size_t kEntry = 116, kEntriesAt = 20;
    constexpr std::size_t kDstAt = 17, kStateAt = 32, kRsIdAt = 114;

    ASSERT_NE(peek<std::uint64_t>(good.bytes, good.fetchAt), 0u)
        << "no fetched instruction at the cut";
    const std::size_t first_fetched = good.fetchAt + kFetchedAt;

    // The youngest queued load and store, and the store queue's
    // uncommitted stores.
    const std::uint64_t queued_loads =
        peek<std::uint64_t>(good.bytes, good.lsqAt);
    ASSERT_NE(queued_loads, 0u) << "no queued load at the cut";
    const std::size_t youngest_load =
        good.lsqAt + 8 + (queued_loads - 1) * kLsqEntry;
    const std::size_t sq_at = good.lsqAt + 8 + queued_loads * kLsqEntry;
    const std::uint64_t queued_stores =
        peek<std::uint64_t>(good.bytes, sq_at);
    unsigned uncommitted = 0;
    for (std::uint64_t i = 0; i < queued_stores; ++i) {
        const std::size_t flags = sq_at + 8 + i * kLsqEntry + kLsqFlagsAt;
        uncommitted += (good.bytes[flags] & kLsqCommitted) == 0;
    }
    ASSERT_GE(uncommitted, 2u) << "fewer than two uncommitted stores";
    const std::size_t youngest_store =
        sq_at + 8 + (queued_stores - 1) * kLsqEntry;

    const auto entries = [](const CoreSection &s) {
        return peek<std::uint64_t>(s.bytes, s.windowAt + 12) -
            peek<std::uint64_t>(s.bytes, s.windowAt + 4);
    };
    std::size_t first_load = 0;
    for (std::uint64_t i = 0; i < entries(good) && !first_load; ++i) {
        const std::size_t e = good.windowAt + kEntriesAt + i * kEntry;
        if (isLoadClass(static_cast<InstrClass>(good.bytes[e + 16])))
            first_load = e;
    }
    ASSERT_NE(first_load, 0u) << "no load in the window at the cut";
    ASSERT_GT(entries(good1rs), 0u);
    const std::size_t first_entry = good.windowAt + kEntriesAt;
    const std::size_t first_entry1rs = good1rs.windowAt + kEntriesAt;

    // Past the window, Core::checkpoint writes each of the six
    // stations' seqs (a count, then the seqs), the seven execute
    // pipelines (their count; each its busy cycle and a count of seq
    // and start pairs), the scoreboard's 128 producers and the
    // pending stores' seqs (a count, then the seqs).
    constexpr std::uint64_t kForeignSeq = 999999;
    constexpr std::size_t kSeqAt = 24;
    const std::uint64_t load_seq =
        peek<std::uint64_t>(good.bytes, first_load + kSeqAt);
    std::size_t at_rs = first_entry + entries(good) * kEntry;
    std::size_t first_station_seq = 0;
    for (unsigned i = 0; i < kNumRs; ++i) {
        const std::uint64_t n = peek<std::uint64_t>(good.bytes, at_rs);
        if (n != 0 && first_station_seq == 0)
            first_station_seq = at_rs + 8;
        at_rs += 8 + n * 8;
    }
    ASSERT_NE(first_station_seq, 0u) << "every station empty at the cut";
    const std::size_t units_at = at_rs;
    ASSERT_EQ(peek<std::uint32_t>(good.bytes, units_at), 7u);
    std::size_t at_units = units_at + 4;
    for (unsigned u = 0; u < 7; ++u)
        at_units += 16 + peek<std::uint64_t>(good.bytes, at_units + 8) * 16;
    const std::size_t stores_at = at_units + 128 * 8;
    // Prepend an element of u64 @p fields to the list whose count
    // sits at @p count_at.
    const auto prepend = [](std::vector<std::uint8_t> &b,
                            std::size_t count_at,
                            const std::vector<std::uint64_t> &fields) {
        poke<std::uint64_t>(b, count_at,
                            peek<std::uint64_t>(b, count_at) + 1);
        std::vector<std::uint8_t> item(8 * fields.size());
        for (std::size_t i = 0; i < fields.size(); ++i)
            poke<std::uint64_t>(item, 8 * i, fields[i]);
        b.insert(b.begin() + count_at + 8, item.begin(), item.end());
    };

    struct Forgery
    {
        const char *what;
        const CoreSection &section;
        std::function<void(std::vector<std::uint8_t> &)> patch;
        const char *field;
    };
    const Forgery forgeries[] = {
        {"2^40 fetched records", good,
         [&](std::vector<std::uint8_t> &b) {
             poke<std::uint64_t>(b, good.fetchAt, std::uint64_t{1} << 40);
         },
         "exceed the fetch queue"},
        {"dst 200", good,
         [&](std::vector<std::uint8_t> &b) {
             b[first_fetched + kDstAt] = 200;
         },
         "register"},
        {"missBlockReason 200", good,
         [&](std::vector<std::uint8_t> &b) { b[good.lsqAt - 1] = 200; },
         "miss-block reason"},
        {"window state 9", good,
         [&](std::vector<std::uint8_t> &b) {
             b[first_entry + kStateAt] = 9;
         },
         "window entry state"},
        {"rsId 9", good,
         [&](std::vector<std::uint8_t> &b) {
             b[first_entry + kRsIdAt] = 9;
         },
         "reservation station"},
        {"rsId of a dealt station on a 1RS machine", good1rs,
         [&](std::vector<std::uint8_t> &b) {
             b[first_entry1rs + kRsIdAt] = kRsE1;
         },
         "reservation station"},
        {"a queued load the window does not hold", good,
         [&](std::vector<std::uint8_t> &b) {
             poke<std::uint64_t>(b, youngest_load, kForeignSeq);
         },
         "load queue does not hold exactly the window's loads"},
        {"a committed store behind an uncommitted one", good,
         [&](std::vector<std::uint8_t> &b) {
             b[youngest_store + kLsqFlagsAt] |= kLsqCommitted;
         },
         "committed store behind an uncommitted one"},
        {"a store the window does not hold", good,
         [&](std::vector<std::uint8_t> &b) {
             poke<std::uint64_t>(b, youngest_store, kForeignSeq);
         },
         "store queue does not hold exactly the window's stores"},
        {"station seq 999999", good,
         [&](std::vector<std::uint8_t> &b) {
             poke<std::uint64_t>(b, first_station_seq, kForeignSeq);
         },
         "reservation-station entry"},
        {"execute pipeline seq 999999", good,
         [&](std::vector<std::uint8_t> &b) {
             prepend(b, units_at + 4 + 8, {kForeignSeq, 0});
         },
         "execute pipeline entry"},
        {"pending store seq 999999", good,
         [&](std::vector<std::uint8_t> &b) {
             prepend(b, stores_at, {kForeignSeq});
         },
         "pending store"},
        {"pending store naming a load", good,
         [&](std::vector<std::uint8_t> &b) {
             prepend(b, stores_at, {load_seq});
         },
         "pending store"},
    };

    ScopedThrowOnError guard;
    testutil::ScopedAddressSpaceCap cap;
    EXPECT_EQ(restoreCoreError(sp, traces, good.bytes), "");
    EXPECT_EQ(restoreCoreError(unified, traces, good1rs.bytes), "");
    for (const Forgery &f : forgeries) {
        std::vector<std::uint8_t> bytes = f.section.bytes;
        f.patch(bytes);
        const SystemParams &machine =
            &f.section == &good ? sp : unified;
        const std::string err = restoreCoreError(machine, traces, bytes);
        EXPECT_NE(err.find(f.field), std::string::npos)
            << f.what << ": " << (err.empty() ? "restored" : err);
    }
}

TEST(Checkpoint, ForgedLayoutNumberIsRefusedByName)
{
    // The checkpoint's layout number is the first value of its
    // "config" section. Another number behind valid checksums must be
    // refused by name, with the file, before any state is read.
    const std::vector<InstrTrace> traces =
        makeTraces(tpccProfile(), 1, 6000);
    const std::string path = tempPath("layout.ckpt");
    SystemParams cp = sparc64vBase().sys;
    cp.checkpoint.atCycle = 2000;
    cp.checkpoint.path = path;
    cp.checkpoint.stopAfter = true;
    {
        System writer(cp);
        attachAll(writer, traces);
        ASSERT_TRUE(writer.run().stoppedAtCheckpoint);
    }
    std::vector<std::uint8_t> image;
    {
        std::ifstream in(path, std::ios::binary);
        image.assign(std::istreambuf_iterator<char>(in), {});
    }

    // The header (magic, format, count, model version, checksum),
    // then "config", the first section: name, payload size, payload.
    const std::size_t name_at =
        8 + 12 + std::strlen(modelVersionString()) + 8 + 4;
    const std::size_t payload_at = name_at + 6 + 8;
    ASSERT_EQ(std::string(image.begin() + name_at,
                          image.begin() + name_at + 6),
              "config");
    const auto size = peek<std::uint64_t>(image, payload_at - 8);
    ASSERT_EQ(peek<std::uint32_t>(image, payload_at),
              ckpt::kCheckpointLayout);
    const std::uint32_t forged = ckpt::kCheckpointLayout + 1;
    poke<std::uint32_t>(image, payload_at, forged);
    poke<std::uint64_t>(image, payload_at + size,
                        ckpt::fnv1a(image.data() + payload_at, size));
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(image.data()),
                  static_cast<std::streamsize>(image.size()));
    }

    ScopedThrowOnError guard;
    System reader(sparc64vBase().sys);
    attachAll(reader, traces);
    std::string err = "restored";
    try {
        ckpt::restoreSystemCheckpoint(reader, path);
    } catch (const std::runtime_error &e) {
        err = e.what();
    }
    EXPECT_NE(err.find("checkpoint '" + path + "'"), std::string::npos)
        << err;
    EXPECT_NE(err.find("unsupported checkpoint layout " +
                       std::to_string(forged) +
                       " (this build reads layout " +
                       std::to_string(ckpt::kCheckpointLayout) + ")"),
              std::string::npos)
        << err;
    std::remove(path.c_str());
}

} // namespace
} // namespace s64v
