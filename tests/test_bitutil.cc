#include "common/bitutil.hh"

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

} // namespace
} // namespace s64v
