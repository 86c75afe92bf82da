/**
 * @file
 * Unit tests for the cycle kernel (sim/clocked.hh): component drain,
 * attachment-order ticking, probe scheduling, registration-order
 * dispatch, self-detach, cycle cap and stop-request outcomes.
 */

#include <gtest/gtest.h>

#include <vector>

#include "check/signals.hh"
#include "sim/clocked.hh"

using namespace s64v;

namespace
{

/** Ticks until a preset cycle, recording every cycle it saw. */
class CountedComponent : public Clocked
{
  public:
    explicit CountedComponent(Cycle done_at) : doneAt_(done_at) {}

    void tick(Cycle cycle) override { ticks.push_back(cycle); }
    bool done() const override
    {
        return !ticks.empty() && ticks.back() + 1 >= doneAt_;
    }

    std::vector<Cycle> ticks;

  private:
    Cycle doneAt_;
};

TEST(CycleKernel, DrainsWhenEveryComponentIsDone)
{
    CycleKernel kernel;
    CountedComponent fast(3), slow(7);
    kernel.attach(&fast);
    kernel.attach(&slow);

    const CycleKernel::Outcome out = kernel.run(1000);
    EXPECT_EQ(out.stop, CycleKernel::Stop::Drained);
    EXPECT_EQ(out.cycle, 7u);
    // A drained component stops ticking while the others continue.
    EXPECT_EQ(fast.ticks.size(), 3u);
    EXPECT_EQ(slow.ticks.size(), 7u);
    EXPECT_EQ(slow.ticks.back(), 6u);
}

/** Appends its id to a shared log on every tick (order witness). */
class OrderWitness final : public Clocked
{
  public:
    OrderWitness(int id, Cycle done_at, std::vector<int> *log)
        : id_(id), doneAt_(done_at), log_(log)
    {
    }

    void tick(Cycle cycle) override
    {
        last_ = cycle;
        log_->push_back(id_);
    }
    bool done() const override { return last_ >= doneAt_; }

  private:
    int id_;
    Cycle last_ = 0;
    Cycle doneAt_;
    std::vector<int> *log_;
};

TEST(CycleKernel, MixedAttachmentPreservesTickOrder)
{
    // Components tick in exact attachment order, every cycle.
    CycleKernel kernel;
    std::vector<int> log;
    OrderWitness a(1, 3, &log), b(2, 3, &log);
    OrderWitness c(3, 3, &log), d(4, 3, &log);
    kernel.attach(&a);
    kernel.attach(&b);
    kernel.attach(&c);
    kernel.attach(&d);
    const CycleKernel::Outcome out = kernel.run(100);
    EXPECT_EQ(out.stop, CycleKernel::Stop::Drained);
    std::vector<int> want;
    for (int cycle = 0; cycle < 4; ++cycle)
        want.insert(want.end(), {1, 2, 3, 4});
    EXPECT_EQ(log, want);
}

TEST(CycleKernel, CycleCapStopsARunawayLoop)
{
    CycleKernel kernel;
    CountedComponent never(~Cycle{0});
    kernel.attach(&never);

    const CycleKernel::Outcome out = kernel.run(25);
    EXPECT_EQ(out.stop, CycleKernel::Stop::CycleCap);
    EXPECT_EQ(out.cycle, 25u);
    EXPECT_EQ(never.ticks.size(), 25u);
}

TEST(CycleKernel, ProbeFiresAtFirstAndEveryPeriod)
{
    CycleKernel kernel;
    CountedComponent comp(20);
    kernel.attach(&comp);

    std::vector<Cycle> fired;
    kernel.attachProbe(5, 5, [&](Cycle c) {
        fired.push_back(c);
        return true;
    });

    kernel.run(1000);
    // Cycle 20 is the drain cycle; probes still fire on it.
    EXPECT_EQ(fired, (std::vector<Cycle>{5, 10, 15, 20}));
}

TEST(CycleKernel, ProbeReturningFalseDetaches)
{
    CycleKernel kernel;
    CountedComponent comp(50);
    kernel.attach(&comp);

    int calls = 0;
    kernel.attachProbe(0, 1, [&](Cycle) { return ++calls < 3; });

    kernel.run(1000);
    EXPECT_EQ(calls, 3);
}

TEST(CycleKernel, ProbesFireInRegistrationOrder)
{
    CycleKernel kernel;
    CountedComponent comp(4);
    kernel.attach(&comp);

    std::vector<int> order;
    kernel.attachProbe(2, 100, [&](Cycle) {
        order.push_back(1);
        return true;
    });
    kernel.attachProbe(2, 100, [&](Cycle) {
        order.push_back(2);
        return true;
    });

    kernel.run(1000);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(CycleKernel, ProbesSeeTheFinalCycle)
{
    // The drain check runs after probes fire, so an end-of-run
    // sample on the last cycle is not lost.
    CycleKernel kernel;
    CountedComponent comp(10);
    kernel.attach(&comp);

    std::vector<Cycle> fired;
    kernel.attachProbe(9, 100, [&](Cycle c) {
        fired.push_back(c);
        return true;
    });

    kernel.run(1000);
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0], 9u);
}

TEST(CycleKernel, StopRequestInterrupts)
{
    CycleKernel kernel;
    CountedComponent never(~Cycle{0});
    kernel.attach(&never);
    kernel.attachProbe(10, 10, [&](Cycle) {
        check::requestStop();
        return true;
    });

    const CycleKernel::Outcome out = kernel.run(100000);
    EXPECT_EQ(out.stop, CycleKernel::Stop::Interrupted);
    EXPECT_EQ(out.cycle, 10u);
    check::clearStopRequest();
}

TEST(CycleKernel, CurrentCycleTracksTheLoop)
{
    CycleKernel kernel;
    CountedComponent comp(6);
    kernel.attach(&comp);

    Cycle seen = ~Cycle{0};
    kernel.attachProbe(4, 100, [&](Cycle) {
        seen = kernel.currentCycle();
        return true;
    });

    kernel.run(1000);
    EXPECT_EQ(seen, 4u);
}

} // namespace
