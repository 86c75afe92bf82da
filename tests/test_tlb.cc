#include "mem/tlb.hh"

#include <gtest/gtest.h>

#include "common/logging.hh"

namespace s64v
{
namespace
{

TlbParams
smallTlb()
{
    TlbParams p;
    p.entries = 16;
    p.assoc = 4;
    p.pageBytes = 8192;
    p.walkLatency = 40;
    return p;
}

TEST(Tlb, MissThenHit)
{
    stats::Group g("t");
    Tlb tlb(smallTlb(), "dtlb", &g);
    EXPECT_EQ(tlb.translate(0x10000, 0), 40u);
    EXPECT_EQ(tlb.translate(0x10000, 1), 0u);
    // Same page, different offset.
    EXPECT_EQ(tlb.translate(0x10000 + 4096, 2), 0u);
    // Different page.
    EXPECT_EQ(tlb.translate(0x20000, 3), 40u);
    EXPECT_EQ(tlb.misses(), 2u);
    EXPECT_EQ(tlb.accesses(), 4u);
}

TEST(Tlb, CapacityEviction)
{
    stats::Group g("t");
    Tlb tlb(smallTlb(), "dtlb", &g);
    // 16 entries, 4 sets of 4 ways; pages with the same set index.
    const Addr page = 8192;
    const unsigned sets = 4;
    for (unsigned i = 0; i < 5; ++i)
        tlb.translate(i * sets * page, i);
    // First entry of the set was LRU-evicted.
    EXPECT_EQ(tlb.translate(0, 100), 40u);
}

TEST(Tlb, LruKeepsHotEntry)
{
    stats::Group g("t");
    Tlb tlb(smallTlb(), "dtlb", &g);
    const Addr page = 8192;
    const unsigned sets = 4;
    tlb.translate(0 * sets * page, 0);
    for (unsigned i = 1; i < 4; ++i)
        tlb.translate(i * sets * page, i);
    tlb.translate(0, 10); // touch entry 0: now MRU.
    tlb.translate(4ull * sets * page, 11); // evicts entry 1.
    EXPECT_EQ(tlb.translate(0, 12), 0u);
    EXPECT_EQ(tlb.translate(1ull * sets * page, 13), 40u);
}

TEST(Tlb, MissRatio)
{
    stats::Group g("t");
    Tlb tlb(smallTlb(), "dtlb", &g);
    tlb.translate(0, 0);
    tlb.translate(0, 1);
    tlb.translate(0, 2);
    tlb.translate(0, 3);
    EXPECT_NEAR(tlb.missRatio(), 0.25, 1e-9);
}

TEST(Tlb, BadGeometryRejected)
{
    setThrowOnError(true);
    stats::Group g("t");
    TlbParams p = smallTlb();
    p.entries = 15; // not divisible by assoc.
    EXPECT_THROW(Tlb t(p, "x", &g), std::runtime_error);
    setThrowOnError(false);
}

} // namespace
} // namespace s64v
