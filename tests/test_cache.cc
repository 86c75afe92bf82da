#include "mem/cache.hh"

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "common/logging.hh"

namespace s64v
{
namespace
{

CacheParams
smallParams()
{
    CacheParams p;
    p.name = "c";
    p.sizeBytes = 4096; // 64 lines.
    p.assoc = 2;        // 32 sets.
    p.latency = 3;
    p.mshrs = 2;
    return p;
}

TEST(CacheArray, HitAfterInsert)
{
    CacheArray a(smallParams());
    EXPECT_FALSE(a.probe(0x1000));
    a.insert(0x1000);
    EXPECT_TRUE(a.probe(0x1000));
    EXPECT_TRUE(a.access(0x1000));
    // Same line, different offset.
    EXPECT_TRUE(a.probe(0x103f));
    // Neighboring line absent.
    EXPECT_FALSE(a.probe(0x1040));
}

TEST(CacheArray, LruEviction)
{
    CacheParams p = smallParams();
    CacheArray a(p);
    const unsigned sets = p.numSets();
    // Three lines mapping to set 0 in a 2-way cache.
    const Addr l0 = 0;
    const Addr l1 = 64ull * sets;
    const Addr l2 = 2ull * 64 * sets;

    a.insert(l0);
    a.insert(l1);
    EXPECT_TRUE(a.access(l0)); // make l1 the LRU.
    const Eviction ev = a.insert(l2);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, l1);
    EXPECT_TRUE(a.probe(l0));
    EXPECT_FALSE(a.probe(l1));
    EXPECT_TRUE(a.probe(l2));
}

TEST(CacheArray, DirtyTrackingAndWritebackOnEvict)
{
    CacheParams p = smallParams();
    CacheArray a(p);
    const unsigned sets = p.numSets();
    a.insert(0);
    EXPECT_TRUE(a.setDirty(0));
    EXPECT_TRUE(a.isDirty(0));
    a.insert(64ull * sets);
    const Eviction ev = a.insert(2ull * 64 * sets);
    EXPECT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.lineAddr, 0u);
}

TEST(CacheArray, InvalidateReturnsDirty)
{
    CacheArray a(smallParams());
    a.insert(0x80, true);
    EXPECT_TRUE(a.invalidate(0x80));
    EXPECT_FALSE(a.probe(0x80));
    EXPECT_FALSE(a.invalidate(0x80)); // absent now.
}

TEST(CacheArray, PrefetchedBitConsumedOnce)
{
    CacheArray a(smallParams());
    a.insert(0x100, false, true);
    EXPECT_TRUE(a.consumePrefetched(0x100));
    EXPECT_FALSE(a.consumePrefetched(0x100));
}

TEST(CacheArray, NonPow2SetsRejected)
{
    setThrowOnError(true);
    CacheParams p = smallParams();
    p.sizeBytes = 4096 + 64;
    EXPECT_THROW(CacheArray a(p), std::runtime_error);
    setThrowOnError(false);
}

TEST(TimedCache, HitTiming)
{
    stats::Group g("t");
    TimedCache c(smallParams(), &g);
    c.fill(0x1000, 0, false);
    const auto res = c.lookup(0x1000, false, 100);
    EXPECT_TRUE(res.hit);
    EXPECT_EQ(res.ready, 100u + smallParams().latency);
}

TEST(TimedCache, MshrMerge)
{
    stats::Group g("t");
    TimedCache c(smallParams(), &g);

    auto miss = c.lookup(0x2000, false, 10);
    EXPECT_FALSE(miss.hit);
    EXPECT_FALSE(miss.merged);
    // Caller services the miss: line arrives at cycle 200.
    c.fill(0x2000, 200, false);

    // A second access to the same line merges with the fill.
    auto merge = c.lookup(0x2010, false, 50);
    EXPECT_FALSE(merge.hit);
    EXPECT_TRUE(merge.merged);
    EXPECT_EQ(merge.ready, 200u);

    // After the fill lands it is a plain hit.
    auto hit = c.lookup(0x2000, false, 300);
    EXPECT_TRUE(hit.hit);
}

TEST(TimedCache, MshrExhaustionDelays)
{
    stats::Group g("t");
    CacheParams p = smallParams(); // mshrs = 2.
    TimedCache c(p, &g);

    (void)c.lookup(0x10000, false, 0);
    c.fill(0x10000, 500, false);
    (void)c.lookup(0x20000, false, 0);
    c.fill(0x20000, 600, false);

    // Third concurrent miss must wait for an MSHR (earliest at 500).
    auto res = c.lookup(0x30000, false, 1);
    EXPECT_FALSE(res.hit);
    EXPECT_FALSE(res.merged);
    EXPECT_GE(res.ready, 500u);

    // fill() does not check capacity: three fills in flight over two
    // MSHRs, and the next miss still waits for the earliest one.
    c.fill(0x30000, 700, false);
    EXPECT_EQ(c.pendingFillCount(2), 3u);
    res = c.lookup(0x40000, false, 2);
    EXPECT_FALSE(res.hit);
    EXPECT_FALSE(res.merged);
    EXPECT_EQ(res.ready, 500u);
}

/** Samples taken by a cache's mshr_residency distribution. */
std::uint64_t
residencySamples(const stats::Group &g)
{
    struct Finder : stats::Visitor
    {
        std::uint64_t count = 0;
        void visitDistribution(const stats::Group &,
                               const std::string &name,
                               const std::string &,
                               const stats::Distribution &d) override
        {
            if (name == "mshr_residency")
                count += d.count();
        }
    } finder;
    g.visit(finder);
    return finder.count;
}

TEST(TimedCache, MshrEntryLifecycle)
{
    stats::Group g("t");
    TimedCache c(smallParams(), &g);

    // A miss holds an MSHR waiting for its fill: unpaired, not yet a
    // pending fill.
    (void)c.lookup(0x2000, false, 10);
    EXPECT_EQ(c.unpairedMisses(), 1u);
    EXPECT_FALSE(c.pending(0x2000, 10));
    EXPECT_EQ(c.pendingFillCount(10), 0u);
    EXPECT_EQ(c.nextPendingFill(10), kCycleNever);

    // Its fill pairs it and samples the residency once.
    c.fill(0x2000, 200, false);
    EXPECT_EQ(c.unpairedMisses(), 0u);
    EXPECT_TRUE(c.pending(0x2000, 10));
    EXPECT_EQ(residencySamples(g), 1u);

    // A fill without a miss (a prefetch) samples nothing.
    c.fill(0x4000, 300, false, /*prefetched=*/true);
    EXPECT_EQ(residencySamples(g), 1u);
    EXPECT_EQ(c.unpairedMisses(), 0u);
    EXPECT_EQ(c.pendingFillCount(10), 2u);

    // Only fills after now count, and the queries drop nothing.
    EXPECT_EQ(c.nextPendingFill(10), 200u);
    EXPECT_EQ(c.nextPendingFill(200), 300u);
    EXPECT_EQ(c.nextPendingFill(300), kCycleNever);
    EXPECT_FALSE(c.pending(0x2000, 200));
    EXPECT_EQ(c.pendingFillCount(250), 1u);
    EXPECT_EQ(c.pendingFillCount(10), 2u);
}

TEST(TimedCache, OffChipPenaltyAddsLatency)
{
    stats::Group g("t");
    CacheParams p = smallParams();
    p.offChip = true;
    p.offChipPenalty = 13;
    TimedCache c(p, &g);
    c.fill(0x40, 0, false);
    auto res = c.lookup(0x40, false, 10);
    EXPECT_EQ(res.ready, 10u + p.latency + 13);
}

TEST(TimedCache, WriteHitSetsDirty)
{
    stats::Group g("t");
    TimedCache c(smallParams(), &g);
    c.fill(0x80, 0, false);
    (void)c.lookup(0x80, true, 5);
    EXPECT_TRUE(c.array().isDirty(0x80));
}

TEST(TimedCache, MissRatioFormula)
{
    stats::Group g("t");
    TimedCache c(smallParams(), &g);
    (void)c.lookup(0x0, false, 0);   // miss.
    c.fill(0x0, 10, false);
    (void)c.lookup(0x0, false, 20);  // hit.
    (void)c.lookup(0x40, false, 21); // miss.
    EXPECT_NEAR(c.missRatio(), 2.0 / 3.0, 1e-9);
}

} // namespace
} // namespace s64v
