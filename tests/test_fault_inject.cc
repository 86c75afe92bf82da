#include "check/fault_inject.hh"

#include <gtest/gtest.h>

#include <string>

#include "common/logging.hh"
#include "sim/system.hh"
#include "workload/generator.hh"
#include "workload/workloads.hh"

namespace s64v
{
namespace
{

using check::FaultKind;
using check::FaultPlan;

class FaultInjectTest : public ::testing::Test
{
  protected:
    void TearDown() override { check::activeFaultPlan().clear(); }
};

TEST_F(FaultInjectTest, ParsesEveryKind)
{
    FaultPlan p;
    p.parse("stall:5000");
    EXPECT_EQ(p.kind, FaultKind::CommitStall);
    EXPECT_EQ(p.at, 5000u);

    p.parse("lost-grant:1234");
    EXPECT_EQ(p.kind, FaultKind::LostGrant);
    EXPECT_EQ(p.at, 1234u);

    p.parse("lost-inval:0");
    EXPECT_EQ(p.kind, FaultKind::LostInvalidate);
    EXPECT_EQ(p.at, 0u);

    p.parse("kill-point:7");
    EXPECT_EQ(p.kind, FaultKind::KillPoint);
    EXPECT_EQ(p.at, 7u);
}

TEST_F(FaultInjectTest, MalformedSpecsAreFatal)
{
    FaultPlan p;
    setThrowOnError(true);
    EXPECT_THROW(p.parse("stall"), std::runtime_error);
    EXPECT_THROW(p.parse("stall:"), std::runtime_error);
    EXPECT_THROW(p.parse("stall:abc"), std::runtime_error);
    EXPECT_THROW(p.parse("stall:12junk"), std::runtime_error);
    EXPECT_THROW(p.parse(":12"), std::runtime_error);
    EXPECT_THROW(p.parse("meteor-strike:1"), std::runtime_error);
    EXPECT_THROW(p.parse(""), std::runtime_error);
    // Faults act on the simulated machine only: the file-damage kinds
    // are refused by name, like any other unknown kind.
    for (const char *gone :
         {"trace-corrupt", "corrupt-ckpt", "truncate-journal"}) {
        try {
            p.parse(std::string(gone) + ":1");
            ADD_FAILURE() << gone << " was accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(gone),
                      std::string::npos)
                << e.what();
        }
    }
    setThrowOnError(false);
}

TEST_F(FaultInjectTest, ClearDisarmsThePlan)
{
    FaultPlan p;
    p.parse("stall:10");
    EXPECT_TRUE(p.active(FaultKind::CommitStall));
    p.clear();
    EXPECT_FALSE(p.active(FaultKind::CommitStall));
    EXPECT_EQ(p.kind, FaultKind::None);
}

TEST_F(FaultInjectTest, CommitStallTripsTheWatchdog)
{
    check::activeFaultPlan().parse("stall:100");
    SystemParams sp;
    sp.watchdogCycles = 400;
    System sys(sp); // the constructor arms the fault into the cores.
    check::activeFaultPlan().clear();
    sys.attachTrace(0, generateTrace(tpccProfile(), 50'000));

    setThrowOnError(true);
    EXPECT_THROW(sys.run(), std::runtime_error);
    setThrowOnError(false);
}

TEST_F(FaultInjectTest, LostBusGrantTripsTheWatchdogDespiteInFlightWork)
{
    // The hard half of deadlock detection: the bus still has a
    // transaction "in flight", but its completion cycle is unreachable.
    // The watchdog's event probe must see through it and fire anyway.
    check::activeFaultPlan().parse("lost-grant:50");
    SystemParams sp;
    sp.watchdogCycles = 400;
    System sys(sp);
    check::activeFaultPlan().clear();
    sys.attachTrace(0, generateTrace(tpccProfile(), 50'000));

    setThrowOnError(true);
    EXPECT_THROW(sys.run(), std::runtime_error);
    setThrowOnError(false);
}

} // namespace
} // namespace s64v
