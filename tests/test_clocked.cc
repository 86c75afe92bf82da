/**
 * @file
 * Unit tests for the cycle kernel (sim/clocked.hh): component drain,
 * attachment-order ticking, probes run at the cycles they name,
 * registration-order dispatch, one settle before the probes due,
 * self-detach, cycle cap and stop-request outcomes.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "check/signals.hh"
#include "common/logging.hh"
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
    kernel.attachProbe(5, [&](Cycle c) {
        fired.push_back(c);
        return c + 5;
    });

    kernel.run(1000);
    // Cycle 20 is the drain cycle; probes still fire on it.
    EXPECT_EQ(fired, (std::vector<Cycle>{5, 10, 15, 20}));
}

TEST(CycleKernel, ProbeNamingNoCycleDetaches)
{
    CycleKernel kernel;
    CountedComponent comp(50);
    kernel.attach(&comp);

    int calls = 0;
    kernel.attachProbe(0, [&](Cycle c) {
        return ++calls < 3 ? c + 1 : kCycleNever;
    });

    kernel.run(1000);
    EXPECT_EQ(calls, 3);
}

TEST(CycleKernel, ProbeNamingNoLaterCycleIsAPanic)
{
    for (const Cycle back : {Cycle{0}, Cycle{1}}) {
        SCOPED_TRACE(back ? "an earlier cycle" : "the same cycle");
        CycleKernel kernel;
        CountedComponent comp(50);
        kernel.attach(&comp);
        kernel.attachProbe(10, [&](Cycle c) { return c - back; });
        ScopedThrowOnError isolate;
        try {
            kernel.run(1000);
            ADD_FAILURE() << "no panic";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "probe run at cycle 10 named cycle " +
                          std::to_string(10 - back)),
                      std::string::npos)
                << e.what();
        }
    }
}

/** Counts the settles the kernel makes and the cycle of each. */
class SettleWitness final : public Clocked
{
  public:
    void tick(Cycle) override {}
    void settle(Cycle through) override { settled.push_back(through); }

    std::vector<Cycle> settled;
};

TEST(CycleKernel, ProbesDueAtACycleShareOneSettle)
{
    // Two probes due at 4, one at 6: the components settle once per
    // cycle with a probe due, before the first probe there runs, and
    // once more at the cycle-cap exit.
    CycleKernel kernel;
    SettleWitness comp;
    kernel.attach(&comp);
    std::vector<std::size_t> seen;
    for (const Cycle first : {Cycle{4}, Cycle{4}, Cycle{6}}) {
        kernel.attachProbe(first, [&](Cycle) {
            seen.push_back(comp.settled.size());
            return kCycleNever;
        });
    }
    kernel.run(9);
    EXPECT_EQ(seen, (std::vector<std::size_t>{1, 1, 2}));
    EXPECT_EQ(comp.settled, (std::vector<Cycle>{5, 7, 9}));
}

TEST(CycleKernel, ProbesFireInRegistrationOrder)
{
    CycleKernel kernel;
    CountedComponent comp(4);
    kernel.attach(&comp);

    std::vector<int> order;
    kernel.attachProbe(2, [&](Cycle c) {
        order.push_back(1);
        return c + 100;
    });
    kernel.attachProbe(2, [&](Cycle c) {
        order.push_back(2);
        return c + 100;
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
    kernel.attachProbe(9, [&](Cycle c) {
        fired.push_back(c);
        return c + 100;
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
    kernel.attachProbe(10, [&](Cycle c) {
        check::requestStop();
        return c + 10;
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
    kernel.attachProbe(4, [&](Cycle c) {
        seen = kernel.currentCycle();
        return c + 100;
    });

    kernel.run(1000);
    EXPECT_EQ(seen, 4u);
}

} // namespace
