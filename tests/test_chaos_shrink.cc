/**
 * @file
 * Tests for the auto-shrinker (chaos/shrink.hh): delta-mask
 * minimization, trace-length halving, the check budget, and the
 * unreproducible-violation path. Synthetic invariants make the
 * failure condition exact, so the tests assert minimality rather
 * than just "it got smaller".
 */

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "chaos/config_fuzzer.hh"
#include "chaos/invariants.hh"
#include "chaos/seeded_bug.hh"
#include "chaos/shrink.hh"
#include "model/params.hh"

namespace s64v::chaos
{
namespace
{

/** A hand-rolled point with three no-op deltas to minimize over. */
ChaosPoint
syntheticPoint()
{
    ChaosPoint p;
    p.workload = "specint95";
    p.numCpus = 1;
    p.instrs = 4000;
    for (const char *name : {"alpha", "beta", "gamma"}) {
        p.deltas.push_back(
            {name, [](MachineParams m) { return m; }});
    }
    p.active.assign(p.deltas.size(), 1);
    return p;
}

bool
hasDelta(const ChaosPoint &p, const std::string &name)
{
    const std::vector<std::string> names = p.activeDeltaNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

TEST(ChaosShrink, KeepsOnlyTheDeltaTheFailureNeeds)
{
    // Fails iff "beta" is active — "alpha" and "gamma" are noise the
    // shrinker must strip.
    const Invariant inv{
        "synthetic", "fails while beta is active",
        [](const ChaosPoint &p) -> std::optional<Violation> {
            if (hasDelta(p, "beta"))
                return Violation{"synthetic", "synthetic:beta",
                                 "beta active"};
            return std::nullopt;
        }};

    const ShrinkResult r = shrinkPoint(syntheticPoint(), inv);
    EXPECT_TRUE(r.reproduced);
    EXPECT_EQ(r.point.activeCount(), 1u);
    EXPECT_TRUE(hasDelta(r.point, "beta"));
    EXPECT_EQ(r.violation.signature, "synthetic:beta");
    // The failure ignores trace length, so halving runs to the
    // floor: 4000 -> 2000 -> 1000 -> 500 would dip under 512.
    EXPECT_EQ(r.point.instrs, 1000u);
}

TEST(ChaosShrink, MinimizesInteractingDeltaPairs)
{
    // Fails iff alpha AND gamma are both active: dropping either one
    // alone passes, so naive one-pass removal could get stuck; the
    // fixpoint loop must still strip beta.
    const Invariant inv{
        "synthetic", "fails while alpha+gamma are active",
        [](const ChaosPoint &p) -> std::optional<Violation> {
            if (hasDelta(p, "alpha") && hasDelta(p, "gamma"))
                return Violation{"synthetic", "synthetic:pair",
                                 "pair active"};
            return std::nullopt;
        }};

    const ShrinkResult r = shrinkPoint(syntheticPoint(), inv);
    EXPECT_TRUE(r.reproduced);
    EXPECT_EQ(r.point.activeCount(), 2u);
    EXPECT_TRUE(hasDelta(r.point, "alpha"));
    EXPECT_TRUE(hasDelta(r.point, "gamma"));
    EXPECT_FALSE(hasDelta(r.point, "beta"));
}

TEST(ChaosShrink, UnreproducibleViolationIsReportedUntouched)
{
    const Invariant inv{
        "synthetic", "never fails",
        [](const ChaosPoint &) -> std::optional<Violation> {
            return std::nullopt;
        }};
    const ChaosPoint p = syntheticPoint();
    const ShrinkResult r = shrinkPoint(p, inv);
    EXPECT_FALSE(r.reproduced);
    EXPECT_EQ(r.checksRun, 1u); // just the reproduce attempt.
    EXPECT_EQ(r.point.activeCount(), p.activeCount());
    EXPECT_EQ(r.point.instrs, p.instrs);
}

TEST(ChaosShrink, BudgetCapsTheChecksSpent)
{
    const Invariant inv{
        "synthetic", "always fails",
        [](const ChaosPoint &) -> std::optional<Violation> {
            return Violation{"synthetic", "synthetic:always", "x"};
        }};
    const ShrinkResult r = shrinkPoint(syntheticPoint(), inv, 3);
    EXPECT_TRUE(r.reproduced);
    EXPECT_LE(r.checksRun, 3u);
    // Whatever it managed inside the budget must still be a failing
    // point, never a passing "minimization".
    EXPECT_TRUE(inv.check(r.point).has_value());
}

TEST(ChaosShrink, ShrinksTheSeededDefectToAMinimalReproducer)
{
    // End-to-end against the real model: arm the seeded defect, take
    // a fuzzed point that carries deltas, and check the shrinker
    // strips all of them — the defect lives in the base cache model,
    // so no configuration delta is required to trigger it.
    setSeededBug(true);
    const Invariant &inv = [] {
        for (const Invariant &i : invariantCatalog())
            if (i.name == "cache-mono")
                return i;
        std::abort();
    }();

    const ConfigFuzzer fuzzer(7);
    ShrinkResult r;
    bool found = false;
    for (std::size_t i = 0; i < 20 && !found; ++i) {
        const ChaosPoint p = fuzzer.point(i);
        if (p.activeCount() == 0 || !inv.check(p))
            continue;
        r = shrinkPoint(p, inv);
        found = true;
    }
    setSeededBug(false);

    ASSERT_TRUE(found) << "no fuzzed point tripped the seeded defect";
    EXPECT_TRUE(r.reproduced);
    EXPECT_EQ(r.point.activeCount(), 0u);
    EXPECT_LT(r.point.instrs, 4096u);
    EXPECT_EQ(r.violation.signature, "cache-mono:miss-increase");
}

} // namespace
} // namespace s64v::chaos
