#include "isa/instr.hh"

#include <set>
#include <string>

#include <gtest/gtest.h>

namespace s64v
{
namespace
{

TEST(Isa, ClassPredicates)
{
    EXPECT_TRUE(isMemClass(InstrClass::Load));
    EXPECT_TRUE(isMemClass(InstrClass::Store));
    EXPECT_FALSE(isMemClass(InstrClass::IntAlu));

    EXPECT_TRUE(isLoadClass(InstrClass::Load));
    EXPECT_FALSE(isLoadClass(InstrClass::Store));

    EXPECT_TRUE(isBranchClass(InstrClass::BranchCond));
    EXPECT_TRUE(isBranchClass(InstrClass::Call));
    EXPECT_TRUE(isBranchClass(InstrClass::Return));
    EXPECT_FALSE(isBranchClass(InstrClass::Load));

    EXPECT_TRUE(isCondBranchClass(InstrClass::BranchCond));
    EXPECT_FALSE(isCondBranchClass(InstrClass::BranchUncond));

    EXPECT_TRUE(isFpClass(InstrClass::FpMulAdd));
    EXPECT_FALSE(isFpClass(InstrClass::IntMul));
}

TEST(Isa, RegisterSpaces)
{
    EXPECT_FALSE(isFpReg(0));
    EXPECT_FALSE(isFpReg(63));
    EXPECT_TRUE(isFpReg(64));
    EXPECT_TRUE(isFpReg(127));
    EXPECT_FALSE(isFpReg(kNoReg));
}

TEST(Isa, Latencies)
{
    EXPECT_EQ(execLatency(InstrClass::IntAlu), 1u);
    EXPECT_GT(execLatency(InstrClass::IntDiv), 10u);
    EXPECT_GT(execLatency(InstrClass::FpDiv), 10u);
    EXPECT_GE(execLatency(InstrClass::FpMulAdd), 3u);
    // FMA should not be slower than a divide.
    EXPECT_LT(execLatency(InstrClass::FpMulAdd),
              execLatency(InstrClass::FpDiv));
}

TEST(Isa, UnpipelinedOnlyDivides)
{
    EXPECT_TRUE(isUnpipelined(InstrClass::IntDiv));
    EXPECT_TRUE(isUnpipelined(InstrClass::FpDiv));
    EXPECT_FALSE(isUnpipelined(InstrClass::IntAlu));
    EXPECT_FALSE(isUnpipelined(InstrClass::FpMulAdd));
    EXPECT_FALSE(isUnpipelined(InstrClass::Load));
}

TEST(Isa, NameRoundTrip)
{
    // Every class has a name of its own, so a dump names it exactly.
    std::set<std::string> names;
    for (int i = 0; i < static_cast<int>(InstrClass::NumClasses);
         ++i) {
        const std::string name = className(static_cast<InstrClass>(i));
        EXPECT_NE(name, "?") << i;
        EXPECT_TRUE(names.insert(name).second) << name;
    }
}

} // namespace
} // namespace s64v
