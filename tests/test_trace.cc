#include "trace/trace.hh"

#include <cstdint>

#include <gtest/gtest.h>

#include "trace/filters.hh"

namespace s64v
{
namespace
{

TraceRecord
makeRec(Addr pc, InstrClass cls)
{
    TraceRecord r;
    r.pc = pc;
    r.cls = cls;
    if (isMemClass(cls)) {
        r.ea = 0x1000;
        r.size = 8;
    }
    return r;
}

TEST(Trace, AppendAndIndex)
{
    InstrTrace t("wl");
    t.append(makeRec(0x100, InstrClass::IntAlu));
    t.append(makeRec(0x104, InstrClass::Load));
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t[0].pc, 0x100u);
    EXPECT_EQ(t[1].cls, InstrClass::Load);
    EXPECT_EQ(t.workloadName(), "wl");
}

TEST(Trace, VectorSourceIteration)
{
    InstrTrace t;
    for (int i = 0; i < 5; ++i)
        t.append(makeRec(0x100 + 4 * i, InstrClass::IntAlu));

    VectorTraceSource src(t);
    TraceRecord r;
    int n = 0;
    while (src.peek(r)) {
        EXPECT_EQ(r.pc, 0x100u + 4 * n);
        src.pop();
        ++n;
    }
    EXPECT_EQ(n, 5);
    EXPECT_EQ(src.consumed(), 5u);

    src.seek(0);
    EXPECT_TRUE(src.peek(r));
    EXPECT_EQ(r.pc, 0x100u);
    EXPECT_EQ(src.consumed(), 0u);
}

TEST(Trace, RecordFlags)
{
    TraceRecord r;
    r.flags = kFlagTaken | kFlagPrivileged;
    EXPECT_TRUE(r.taken());
    EXPECT_TRUE(r.privileged());
    EXPECT_FALSE(r.sharedData());
}

TEST(Trace, SampleClampsToEnd)
{
    InstrTrace t;
    for (int i = 0; i < 10; ++i)
        t.append(makeRec(4 * i, InstrClass::IntAlu));

    const InstrTrace s1 = sampleTrace(t, 4, 3);
    EXPECT_EQ(s1.size(), 3u);
    EXPECT_EQ(s1[0].pc, 16u);

    const InstrTrace s2 = sampleTrace(t, 8, 100);
    EXPECT_EQ(s2.size(), 2u);

    const InstrTrace s3 = sampleTrace(t, 100, 10);
    EXPECT_TRUE(s3.empty());

    // skip + length would wrap: the length is clamped first.
    const InstrTrace s4 = sampleTrace(t, 4, SIZE_MAX);
    ASSERT_EQ(s4.size(), 6u);
    EXPECT_EQ(s4[0].pc, 16u);
}

TEST(Trace, ValidateCatchesBadRecords)
{
    InstrTrace good;
    good.append(makeRec(0x100, InstrClass::Load));
    EXPECT_EQ(validateTrace(good), "");

    InstrTrace bad;
    TraceRecord r = makeRec(0x100, InstrClass::Load);
    r.size = 0;
    bad.append(r);
    EXPECT_NE(validateTrace(bad), "");

    InstrTrace bad2;
    TraceRecord b = makeRec(0x100, InstrClass::BranchCond);
    b.flags = kFlagTaken;
    b.ea = 0;
    bad2.append(b);
    EXPECT_NE(validateTrace(bad2), "");
}

TEST(Trace, SummaryFractions)
{
    InstrTrace t;
    t.append(makeRec(0x100, InstrClass::Load));
    t.append(makeRec(0x104, InstrClass::Store));
    TraceRecord br = makeRec(0x108, InstrClass::BranchCond);
    br.flags = kFlagTaken;
    br.ea = 0x100;
    t.append(br);
    t.append(makeRec(0x10c, InstrClass::IntAlu));

    const TraceSummary s = summarizeTrace(t);
    EXPECT_EQ(s.instructions, 4u);
    EXPECT_DOUBLE_EQ(s.loadFraction, 0.25);
    EXPECT_DOUBLE_EQ(s.storeFraction, 0.25);
    EXPECT_DOUBLE_EQ(s.branchFraction, 0.25);
    EXPECT_DOUBLE_EQ(s.takenFraction, 1.0);
    EXPECT_EQ(s.distinctBranchPcs, 1u);
    EXPECT_FALSE(s.toString().empty());
}

} // namespace
} // namespace s64v
