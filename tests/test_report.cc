#include "analysis/report.hh"

#include <gtest/gtest.h>

namespace s64v
{
namespace
{

TEST(Report, TableAlignsColumns)
{
    Table t({"workload", "ipc"});
    t.addRow({"SPECint95", "1.234"});
    t.addRow({"TPC-C", "0.5"});
    const std::string out = t.render();
    EXPECT_NE(out.find("workload"), std::string::npos);
    EXPECT_NE(out.find("SPECint95  1.234"), std::string::npos);
    EXPECT_NE(out.find("TPC-C"), std::string::npos);
    // Header separator present.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Report, ShortRowsPadded)
{
    Table t({"a", "b", "c"});
    t.addRow({"x"});
    EXPECT_NO_THROW(t.render());
}

TEST(Report, FmtHelpers)
{
    EXPECT_EQ(fmtDouble(1.23456, 2), "1.23");
    EXPECT_EQ(fmtPercent(0.356, 1), "35.6%");
    EXPECT_EQ(fmtRatioPercent(88.0, 100.0, 1), "88.0%");
    EXPECT_EQ(fmtRatioPercent(1.0, 0.0), "n/a");
}

TEST(Report, BarScalesAndClamps)
{
    EXPECT_EQ(fmtBar(0.5, 10), "#####.....");
    EXPECT_EQ(fmtBar(0.0, 4), "....");
    EXPECT_EQ(fmtBar(1.0, 4), "####");
    EXPECT_EQ(fmtBar(2.0, 4), "####"); // clamped.
    EXPECT_EQ(fmtBar(-1.0, 4), "....");
}

} // namespace
} // namespace s64v
