/**
 * @file
 * Tests for the metamorphic invariant library (chaos/invariants.hh):
 * the catalogue and selection parsing, clean behaviour on healthy
 * points, and — the mutation-test heart of the chaos engine — that
 * the deliberately seeded defect (chaos/seeded_bug.hh) trips exactly
 * the invariant designed to catch it and no other.
 */

#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "chaos/config_fuzzer.hh"
#include "chaos/invariants.hh"
#include "chaos/seeded_bug.hh"
#include "common/logging.hh"

namespace s64v::chaos
{
namespace
{

/** Force the seeded defect on/off for one test, whatever the build
 *  flag or environment says. */
class ScopedSeededBug
{
  public:
    explicit ScopedSeededBug(bool armed) { setSeededBug(armed); }
    ~ScopedSeededBug() { setSeededBug(false); }
};

const Invariant &
byName(const std::string &name)
{
    for (const Invariant &inv : invariantCatalog()) {
        if (inv.name == name)
            return inv;
    }
    ADD_FAILURE() << "no invariant named " << name;
    static Invariant none;
    return none;
}

TEST(ChaosInvariants, CatalogCoversTheDocumentedSet)
{
    const std::vector<Invariant> &catalog = invariantCatalog();
    ASSERT_EQ(catalog.size(), 8u);
    for (const char *name :
         {"cache-mono", "issue-mono", "ckpt-replay",
          "serial-parallel", "warmup-band", "golden-agree", "storm",
          "skipahead-identity"})
        EXPECT_NO_FATAL_FAILURE(byName(name));
}

TEST(ChaosInvariants, SelectionParsesSubsetsAndRejectsUnknowns)
{
    EXPECT_EQ(selectInvariants("").size(), invariantCatalog().size());
    EXPECT_EQ(selectInvariants("all").size(),
              invariantCatalog().size());

    const std::vector<Invariant> two =
        selectInvariants("cache-mono,storm");
    ASSERT_EQ(two.size(), 2u);
    EXPECT_EQ(two[0].name, "cache-mono");
    EXPECT_EQ(two[1].name, "storm");

    ScopedThrowOnError guard;
    EXPECT_THROW(selectInvariants("no-such-invariant"),
                 std::runtime_error);
}

TEST(ChaosInvariants, HealthyPointPassesTheInProcessInvariants)
{
    ScopedSeededBug healthy(false);
    const ChaosPoint p = ConfigFuzzer(7).point(0);
    for (const char *name :
         {"cache-mono", "issue-mono", "warmup-band", "golden-agree",
          "ckpt-replay", "serial-parallel", "skipahead-identity"}) {
        SCOPED_TRACE(name);
        const std::optional<Violation> v = byName(name).check(p);
        EXPECT_FALSE(v.has_value())
            << v->signature << ": " << v->detail;
    }
}

TEST(ChaosInvariants, SeededDefectTripsCacheMono)
{
    ScopedSeededBug armed(true);
    // The defect double-counts misses in caches >= 8MB: the base L2
    // (2MB) counts honestly, the 4x-grown comparison run does not,
    // so growth appears to *increase* misses — exactly the
    // metamorphic relation cache-mono checks.
    const ChaosPoint p = ConfigFuzzer(7).point(0);
    const std::optional<Violation> v = byName("cache-mono").check(p);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->invariant, "cache-mono");
    EXPECT_EQ(v->signature, "cache-mono:miss-increase");
    EXPECT_NE(v->detail.find("increased misses"), std::string::npos)
        << v->detail;
}

TEST(ChaosInvariants, SeededDefectIsStatsOnlyForOtherInvariants)
{
    ScopedSeededBug armed(true);
    const ChaosPoint p = ConfigFuzzer(7).point(0);
    // The defect inflates a counter but never timing, so the
    // bit-identity and timing invariants must stay green — the
    // campaign pinpoints the defect rather than drowning in
    // collateral failures.
    for (const char *name :
         {"issue-mono", "warmup-band", "golden-agree", "ckpt-replay"}) {
        SCOPED_TRACE(name);
        const std::optional<Violation> v = byName(name).check(p);
        EXPECT_FALSE(v.has_value())
            << v->signature << ": " << v->detail;
    }
}

TEST(ChaosInvariants, ViolationSignaturesAreStableAcrossPoints)
{
    ScopedSeededBug armed(true);
    const ConfigFuzzer fuzzer(11);
    std::string signature;
    std::size_t hits = 0;
    for (std::size_t i = 0; i < 6; ++i) {
        const std::optional<Violation> v =
            byName("cache-mono").check(fuzzer.point(i));
        if (!v)
            continue;
        ++hits;
        if (signature.empty())
            signature = v->signature;
        else
            EXPECT_EQ(v->signature, signature);
    }
    // The defect fires on most points; the triage sink relies on the
    // shared signature to fold them into one bucket.
    EXPECT_GE(hits, 2u);
}

} // namespace
} // namespace s64v::chaos
