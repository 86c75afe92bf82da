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

/** Times every visited cycle and counts the kernel's calls. */
class VisitCounter final : public TickProfiler
{
  public:
    bool sampleCycle(Cycle) override
    {
        ++visits;
        return true;
    }
    void recordTick(const Clocked &, std::uint64_t) override { ++ticks; }
    void recordProbes(std::uint64_t) override { ++probePasses; }
    void recordElided(std::uint64_t cycles) override { elided += cycles; }

    std::uint64_t visits = 0;
    std::uint64_t ticks = 0;
    std::uint64_t probePasses = 0;
    std::uint64_t elided = 0;
};

/**
 * Digest of the stats JSON of one hand-traced run, optionally timed
 * by @p profiler.
 */
std::string
statsDigest(unsigned cpus, std::size_t instrs, bool skip_ahead,
            VisitCounter *profiler = nullptr)
{
    SystemParams sp = sparc64vBase(cpus).sys;
    sp.warmupInstrs = instrs / 5;
    sp.skipAhead = skip_ahead;
    System sys(sp);
    for (CpuId cpu = 0; cpu < cpus; ++cpu)
        sys.attachTrace(cpu, testutil::handTrace(kSeed, instrs, cpu));
    sys.attachProfiler(profiler);
    const SimResult res = sys.run();
    EXPECT_FALSE(res.hitCycleCap);
    EXPECT_EQ(res.instructions, instrs * cpus);
    // The fast engine must actually skip: the pin covers elision.
    EXPECT_EQ(res.elidedCycles > 0, skip_ahead);
    if (profiler) {
        // The run covers cycles 0..currentCycle(), each one visited or
        // elided, and every visit ends with one probe pass.
        EXPECT_EQ(profiler->visits + profiler->elided,
                  sys.currentCycle() + 1);
        EXPECT_EQ(profiler->elided, res.elidedCycles);
        EXPECT_EQ(profiler->probePasses, profiler->visits);
        EXPECT_GT(profiler->ticks, 0u);
    }
    const std::string json = obs::exportStatsJson(sys.root(), &res);
    return hex(ckpt::fnv1a(json.data(), json.size()));
}

constexpr std::size_t kUpInstrs = 40000;
constexpr std::size_t kSmpInstrs = 10000;
const char *const kUpDigest = "0xfc66166c977cfbf7";
const char *const kSmp4Digest = "0xd1dd526635f9d7cd";

TEST(SameBytes, UpPlainLoop)
{
    EXPECT_EQ(statsDigest(1, kUpInstrs, false), kUpDigest);
}

TEST(SameBytes, UpFastEngine)
{
    EXPECT_EQ(statsDigest(1, kUpInstrs, true), kUpDigest);
}

TEST(SameBytes, Smp4PlainLoop)
{
    EXPECT_EQ(statsDigest(4, kSmpInstrs, false), kSmp4Digest);
}

TEST(SameBytes, Smp4FastEngine)
{
    EXPECT_EQ(statsDigest(4, kSmpInstrs, true), kSmp4Digest);
}

TEST(SameBytes, UpFastEngineProfiled)
{
    VisitCounter profiler;
    EXPECT_EQ(statsDigest(1, kUpInstrs, true, &profiler), kUpDigest);
}

TEST(SameBytes, Smp4FastEngineProfiled)
{
    VisitCounter profiler;
    EXPECT_EQ(statsDigest(4, kSmpInstrs, true, &profiler), kSmp4Digest);
}

} // namespace
} // namespace s64v
