/**
 * @file
 * Same bytes out, pinned. Every speed change to the simulator must
 * leave the exported stats JSON byte-for-byte as it was, on both
 * engines. These tests record the FNV-1a digest of exportStatsJson
 * for short uniprocessor and 4P runs over host-independent hand-built
 * traces (tests/hand_trace.hh). A change that moves one of them has
 * changed the model's output, not just its speed. The profiled runs
 * pin the kernel's timed branch, which simbench's traced run drives
 * through a TickProfiler: timing every visit leaves the bytes alone,
 * and the kernel reports each cycle exactly once, as a visit or as
 * an elided cycle.
 */

#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "ckpt/snapshot.hh"
#include "hand_trace.hh"
#include "model/params.hh"
#include "obs/stats_export.hh"
#include "run_util.hh"
#include "sim/system.hh"

namespace s64v
{
namespace
{

constexpr std::uint64_t kSeed = 20031;

std::string
hex(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/**
 * Digest of the stats JSON of one hand-traced run of @p base,
 * optionally timed by @p profiler; @p inspect, if given, walks the
 * stats tree the digest covers.
 */
std::string
statsDigest(const SystemParams &base, std::size_t instrs,
            bool skip_ahead,
            testutil::VisitRecorder *profiler = nullptr,
            stats::Visitor *inspect = nullptr)
{
    SystemParams sp = base;
    sp.warmupInstrs = instrs / 5;
    sp.skipAhead = skip_ahead;
    System sys(sp);
    for (CpuId cpu = 0; cpu < sp.numCpus; ++cpu)
        sys.attachTrace(cpu, testutil::handTrace(kSeed, instrs, cpu));
    sys.attachProfiler(profiler);
    const SimResult res = sys.run();
    EXPECT_FALSE(res.hitCycleCap);
    EXPECT_EQ(res.instructions, instrs * sp.numCpus);
    // The fast engine must actually skip: the pin covers elision.
    EXPECT_EQ(res.elidedCycles > 0, skip_ahead);
    if (profiler) {
        // The run covers cycles 0..currentCycle(), each one visited or
        // elided, and every visit ends with one probe pass.
        EXPECT_EQ(profiler->visits.size() + profiler->elided,
                  sys.currentCycle() + 1);
        EXPECT_EQ(profiler->elided, res.elidedCycles);
        EXPECT_EQ(profiler->probePasses, profiler->visits.size());
        EXPECT_GT(profiler->ticks, 0u);
    }
    if (inspect)
        sys.root().visit(*inspect);
    const std::string json = obs::exportStatsJson(sys.root(), &res);
    return hex(ckpt::fnv1a(json.data(), json.size()));
}

/**
 * Sums the caches' MSHR-full stalls and counts the caches whose
 * in-flight fills outgrew their MSHR count at some lookup.
 */
class MshrPressure final : public stats::Visitor
{
  public:
    explicit MshrPressure(const MemParams &mem) : mem_(mem) {}

    void visitScalar(const stats::Group &, const std::string &name,
                     const std::string &, const stats::Scalar &s) override
    {
        if (name == "mshr_full")
            fullStalls += s.value();
    }
    void visitHistogram(const stats::Group &g, const std::string &name,
                        const std::string &,
                        const stats::Histogram &h) override
    {
        if (name != "mshr_occupancy")
            return;
        const std::string cache = g.localName();
        const unsigned mshrs = cache == "l1i" ? mem_.l1i.mshrs
            : cache == "l1d"                  ? mem_.l1d.mshrs
                                              : mem_.l2.mshrs;
        if (h.dist().max() > mshrs)
            ++overfullCaches;
    }

    std::uint64_t fullStalls = 0;
    unsigned overfullCaches = 0;

  private:
    const MemParams &mem_;
};

/** The 4P machine with 4-entry L1D and L2 MSHR files. */
SystemParams
fewMshrs()
{
    SystemParams sp = sparc64vBase(4).sys;
    sp.mem.l1d.mshrs = 4;
    sp.mem.l2.mshrs = 4;
    return sp;
}

constexpr std::size_t kUpInstrs = 40000;
constexpr std::size_t kSmpInstrs = 10000;
const char *const kUpDigest = "0xfc66166c977cfbf7";
const char *const kSmp4Digest = "0xd1dd526635f9d7cd";
const char *const kFewMshrsDigest = "0x00b23a1e33e80674";

TEST(SameBytes, UpPlainLoop)
{
    EXPECT_EQ(statsDigest(sparc64vBase(1).sys, kUpInstrs, false),
              kUpDigest);
}

TEST(SameBytes, UpFastEngine)
{
    EXPECT_EQ(statsDigest(sparc64vBase(1).sys, kUpInstrs, true),
              kUpDigest);
}

TEST(SameBytes, Smp4PlainLoop)
{
    EXPECT_EQ(statsDigest(sparc64vBase(4).sys, kSmpInstrs, false),
              kSmp4Digest);
}

TEST(SameBytes, Smp4FastEngine)
{
    EXPECT_EQ(statsDigest(sparc64vBase(4).sys, kSmpInstrs, true),
              kSmp4Digest);
}

// The pins above barely reach the MSHR paths (the 4P run has one
// MSHR-full stall and never more than 12 fills in flight). This one
// works them hard: full files, merges, prefetch fills and fills in
// flight beyond the MSHR count, on both engines.
TEST(SameBytes, FewMshrsPlainLoop)
{
    const SystemParams sp = fewMshrs();
    MshrPressure pressure(sp.mem);
    EXPECT_EQ(statsDigest(sp, kSmpInstrs, false, nullptr, &pressure),
              kFewMshrsDigest);
    EXPECT_GT(pressure.fullStalls, 0u);
    EXPECT_GT(pressure.overfullCaches, 0u);
}

TEST(SameBytes, FewMshrsFastEngine)
{
    const SystemParams sp = fewMshrs();
    MshrPressure pressure(sp.mem);
    EXPECT_EQ(statsDigest(sp, kSmpInstrs, true, nullptr, &pressure),
              kFewMshrsDigest);
    EXPECT_GT(pressure.fullStalls, 0u);
    EXPECT_GT(pressure.overfullCaches, 0u);
}

TEST(SameBytes, UpFastEngineProfiled)
{
    testutil::VisitRecorder profiler;
    EXPECT_EQ(statsDigest(sparc64vBase(1).sys, kUpInstrs, true, &profiler),
              kUpDigest);
}

TEST(SameBytes, Smp4FastEngineProfiled)
{
    testutil::VisitRecorder profiler;
    EXPECT_EQ(statsDigest(sparc64vBase(4).sys, kSmpInstrs, true, &profiler),
              kSmp4Digest);
}

} // namespace
} // namespace s64v
