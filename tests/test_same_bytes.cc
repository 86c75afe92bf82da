/**
 * @file
 * Same bytes out, pinned. Every speed change to the simulator must
 * leave the exported stats JSON byte-for-byte as it was, on both
 * engines. These tests record the FNV-1a digest of exportStatsJson
 * for short uniprocessor and 4P runs over host-independent hand-built
 * traces (tests/hand_trace.hh). A change that moves one of them has
 * changed the model's output, not just its speed.
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

/** Digest of the stats JSON of one hand-traced run. */
std::string
statsDigest(unsigned cpus, std::size_t instrs, bool skip_ahead)
{
    SystemParams sp = sparc64vBase(cpus).sys;
    sp.warmupInstrs = instrs / 5;
    sp.skipAhead = skip_ahead;
    System sys(sp);
    for (CpuId cpu = 0; cpu < cpus; ++cpu)
        sys.attachTrace(cpu, testutil::handTrace(kSeed, instrs, cpu));
    const SimResult res = sys.run();
    EXPECT_FALSE(res.hitCycleCap);
    EXPECT_EQ(res.instructions, instrs * cpus);
    // The fast engine must actually skip: the pin covers elision.
    EXPECT_EQ(res.elidedCycles > 0, skip_ahead);
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

} // namespace
} // namespace s64v
