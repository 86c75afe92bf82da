#include "common/bitutil.hh"

#include <vector>

#include <gtest/gtest.h>

namespace s64v
{
namespace
{

TEST(BitUtil, PowerOfTwo)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ull << 40));
    EXPECT_FALSE(isPowerOf2((1ull << 40) + 1));
}

TEST(BitUtil, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2(65), 6u);
    EXPECT_EQ(floorLog2(1ull << 63), 63u);
}

TEST(BitUtil, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(64), 6u);
    EXPECT_EQ(ceilLog2(65), 7u);
}

TEST(BitUtil, Align)
{
    EXPECT_EQ(alignDown(0x1234, 64), 0x1200u);
    EXPECT_EQ(alignUp(0x1234, 64), 0x1240u);
    EXPECT_EQ(alignDown(0x1240, 64), 0x1240u);
    EXPECT_EQ(alignUp(0x1240, 64), 0x1240u);
}

TEST(BitUtil, Mix64IsDeterministicAndSpreads)
{
    EXPECT_EQ(mix64(42), mix64(42));
    EXPECT_NE(mix64(42), mix64(43));
    // Low bits should differ even for adjacent inputs.
    EXPECT_NE(mix64(100) & 0xffff, mix64(101) & 0xffff);
}

// --- DenseBits: the SoA scan mask ---------------------------------

TEST(DenseBitsSoA, SetClearCountAcrossWordBoundaries)
{
    DenseBits bits;
    bits.resize(130); // three words, last one partial.
    EXPECT_EQ(bits.count(), 0u);
    for (std::size_t i : {0u, 63u, 64u, 127u, 128u, 129u})
        bits.set(i);
    EXPECT_EQ(bits.count(), 6u);
    EXPECT_TRUE(bits.test(63));
    EXPECT_FALSE(bits.test(62));
    bits.clear(63);
    EXPECT_FALSE(bits.test(63));
    EXPECT_EQ(bits.count(), 5u);
    bits.set(63);
    bits.clear(0);
    EXPECT_TRUE(bits.test(63));
    EXPECT_FALSE(bits.test(0));
    bits.reset();
    EXPECT_EQ(bits.count(), 0u);
}

TEST(DenseBitsSoA, FindFirstSkipsWholeEmptyAndFullWords)
{
    DenseBits bits;
    bits.resize(200);
    EXPECT_EQ(bits.findFirstZero(), 0);
    bits.set(131);
    EXPECT_EQ(bits.findFirstZero(), 0);
    for (std::size_t i = 0; i < 130; ++i)
        bits.set(i);
    EXPECT_EQ(bits.findFirstZero(), 130);
    for (std::size_t i = 0; i < 200; ++i)
        bits.set(i);
    EXPECT_EQ(bits.findFirstZero(), -1);
}

TEST(DenseBitsSoA, ForEachVisitsInOrder)
{
    DenseBits bits;
    bits.resize(150);
    const std::vector<std::size_t> want{3, 64, 65, 149};
    for (std::size_t i : want)
        bits.set(i);

    std::vector<std::size_t> seen;
    bits.forEach([&](std::size_t i) { seen.push_back(i); });
    EXPECT_EQ(seen, want);
}

} // namespace
} // namespace s64v
