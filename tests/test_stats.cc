#include "common/stats.hh"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/snapshot.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "obs/stats_export.hh"

#include "json_checker.hh"

namespace s64v
{
namespace
{

TEST(Stats, ScalarCounting)
{
    stats::Group g("root");
    stats::Scalar &c = g.scalar("events", "test events");
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    EXPECT_EQ(g.lookup("events").value(), 6u);
}

TEST(Stats, ScalarReregistrationReturnsSame)
{
    stats::Group g("root");
    stats::Scalar &a = g.scalar("x", "first");
    ++a;
    stats::Scalar &b = g.scalar("x", "second");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 1u);
}

TEST(Stats, FormulaEvaluation)
{
    stats::Group g("root");
    stats::Scalar &hits = g.scalar("hits", "h");
    stats::Scalar &total = g.scalar("total", "t");
    g.formula("ratio", "hit ratio", [&] {
        return total.value()
            ? double(hits.value()) / total.value() : 0.0;
    });
    hits += 3;
    total += 4;
    EXPECT_DOUBLE_EQ(g.evaluate("ratio"), 0.75);
}

TEST(Stats, NestedPathsAndDump)
{
    stats::Group root("sim");
    stats::Group child("cpu0", &root);
    stats::Scalar &c = child.scalar("commits", "committed");
    c += 42;
    EXPECT_EQ(child.path(), "sim.cpu0");
    EXPECT_EQ(child.lookup("commits").value(), 42u);

    const std::string json = obs::exportStatsJson(root);
    EXPECT_TRUE(testutil::hasStat(json, "sim.cpu0", "commits"));
    EXPECT_NE(json.find("\"value\":42"), std::string::npos);
}

TEST(Stats, ResetAllRecurses)
{
    stats::Group root("sim");
    stats::Group child("cpu0", &root);
    stats::Scalar &a = root.scalar("a", "");
    stats::Scalar &b = child.scalar("b", "");
    a += 1;
    b += 2;
    root.resetAll();
    EXPECT_EQ(a.value(), 0u);
    EXPECT_EQ(b.value(), 0u);
}

TEST(Stats, MissingLookupPanics)
{
    setThrowOnError(true);
    stats::Group g("root");
    EXPECT_THROW(g.lookup("absent"), std::runtime_error);
    EXPECT_THROW(g.evaluate("absent"), std::runtime_error);
    EXPECT_THROW(g.lookupHistogram("absent"), std::runtime_error);
    setThrowOnError(false);
}

TEST(Stats, DistributionMoments)
{
    stats::Group g("root");
    stats::Distribution &d = g.distribution("lat", "latency");
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    d.sample(2.0);
    d.sample(4.0);
    d.sample(6.0, 2);
    EXPECT_EQ(d.count(), 4u);
    EXPECT_DOUBLE_EQ(d.sum(), 18.0);
    EXPECT_DOUBLE_EQ(d.mean(), 4.5);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 6.0);
    // Population stddev of {2, 4, 6, 6}.
    EXPECT_NEAR(d.stddev(), 1.6583, 1e-4);

    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.min(), 0.0);
    EXPECT_DOUBLE_EQ(d.max(), 0.0);
}

TEST(Stats, HistogramBuckets)
{
    stats::Group g("root");
    stats::Histogram &h = g.histogram("occ", "occupancy",
                                      0.0, 10.0, 5);
    EXPECT_EQ(h.numBuckets(), 5u);
    EXPECT_DOUBLE_EQ(h.bucketWidth(), 2.0);

    h.sample(-1.0);       // underflow
    h.sample(0.0);        // bucket 0
    h.sample(1.9);        // bucket 0
    h.sample(5.0);        // bucket 2
    h.sample(9.99);       // bucket 4
    h.sample(10.0);       // overflow (hi is exclusive)
    h.sample(42.0, 3);    // overflow x3

    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 4u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 0u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(4), 1u);
    EXPECT_EQ(h.dist().count(), 9u); // every sample is counted.

    EXPECT_EQ(&g.lookupHistogram("occ"), &h);
    // The first registration of a name wins, layout included.
    EXPECT_EQ(&g.histogram("occ", "other", 0.0, 64.0, 8), &h);
    EXPECT_EQ(h.numBuckets(), 5u);
    EXPECT_DOUBLE_EQ(h.hi(), 10.0);

    setThrowOnError(true);
    EXPECT_THROW(stats::Histogram(0.0, 10.0, 0), std::runtime_error);
    EXPECT_THROW(stats::Histogram(4.0, 4.0, 2), std::runtime_error);
    setThrowOnError(false);
}

TEST(Stats, ResetAllCoversEveryStatKind)
{
    stats::Group root("sim");
    stats::Group child("cpu0", &root);
    stats::Distribution &d = root.distribution("d", "");
    stats::Histogram &h = child.histogram("h", "", 0.0, 4.0, 4);
    d.sample(3.0);
    h.sample(1.0);
    root.resetAll();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(h.dist().count(), 0u);
    EXPECT_EQ(h.bucketCount(1), 0u);
    // The layout survives the reset; only the samples are dropped.
    EXPECT_EQ(h.numBuckets(), 4u);
    h.sample(1.0);
    EXPECT_EQ(h.bucketCount(1), 1u);
}

TEST(Stats, FormulasEvaluateAfterResetAll)
{
    stats::Group root("sim");
    stats::Group child("cpu0", &root);
    stats::Scalar &hits = child.scalar("hits", "");
    stats::Scalar &total = child.scalar("total", "");
    child.formula("ratio", "hit ratio", [&] {
        return total.value()
            ? double(hits.value()) / total.value() : 0.0;
    });
    hits += 1;
    total += 2;
    EXPECT_DOUBLE_EQ(child.evaluate("ratio"), 0.5);

    root.resetAll();
    // Formula still bound to the (reset) counters, not stale values.
    EXPECT_DOUBLE_EQ(child.evaluate("ratio"), 0.0);
    hits += 3;
    total += 4;
    EXPECT_DOUBLE_EQ(child.evaluate("ratio"), 0.75);
}

TEST(Stats, VisitorWalksEveryKindInOrder)
{
    stats::Group root("sim");
    stats::Group child("cpu0", &root);
    root.scalar("s", "scalar") += 2;
    root.formula("f", "formula", [] { return 1.5; });
    root.distribution("d", "dist").sample(3.0);
    root.histogram("h", "hist", 0.0, 4.0, 2).sample(1.0);
    child.scalar("inner", "child scalar") += 1;

    struct Recorder : stats::Visitor
    {
        std::vector<std::string> log;
        void beginGroup(const stats::Group &g) override
        {
            log.push_back("begin " + g.path());
        }
        void endGroup(const stats::Group &g) override
        {
            log.push_back("end " + g.path());
        }
        void visitScalar(const stats::Group &, const std::string &n,
                         const std::string &,
                         const stats::Scalar &s) override
        {
            log.push_back("scalar " + n + "=" +
                          std::to_string(s.value()));
        }
        void visitFormula(const stats::Group &, const std::string &n,
                          const std::string &, double v) override
        {
            log.push_back("formula " + n + "=" + std::to_string(v));
        }
        void visitDistribution(const stats::Group &,
                               const std::string &n,
                               const std::string &,
                               const stats::Distribution &) override
        {
            log.push_back("dist " + n);
        }
        void visitHistogram(const stats::Group &, const std::string &n,
                            const std::string &,
                            const stats::Histogram &) override
        {
            log.push_back("hist " + n);
        }
    } rec;
    root.visit(rec);

    const std::vector<std::string> want = {
        "begin sim", "scalar s=2", "formula f=1.500000", "dist d",
        "hist h", "begin sim.cpu0", "scalar inner=1", "end sim.cpu0",
        "end sim",
    };
    EXPECT_EQ(rec.log, want);
}

// --- Per-value counts folded in bulk: the moments of single samples

/**
 * One distribution and one histogram in a group of their own. The
 * histogram's [2, 18) range puts small values in the underflow bucket
 * and large ones in the overflow.
 */
struct StatSet
{
    void sample(double v, std::uint64_t n = 1)
    {
        d.sample(v, n);
        h.sample(v, n);
    }

    /** Snapshot image of the group's stats. */
    std::vector<std::uint8_t> save() const
    {
        ckpt::SnapshotWriter w;
        w.beginSection("stats");
        g.saveState(w);
        return w.finish("fold-test");
    }

    void restore(std::vector<std::uint8_t> image)
    {
        ckpt::SnapshotReader r =
            ckpt::SnapshotReader::fromBytes(std::move(image));
        r.openSection("stats");
        g.restoreState(r);
        r.closeSection();
    }

    stats::Group g{"occupancy"};
    stats::Distribution &d = g.distribution("d", "distribution");
    stats::Histogram &h = g.histogram("h", "histogram", 2.0, 18.0, 8);
};

/**
 * The same integer stream fed two ways: @c direct samples each value
 * as it comes; @c folded counts the values below kRange per value,
 * as the core's occupancy and commit-latency tables do, samples the
 * rest at once, and folds each count with sample(v, n) in fold().
 */
struct FoldPair
{
    void add(std::uint64_t v)
    {
        direct.sample(static_cast<double>(v));
        if (v < kRange)
            ++pending[v];
        else
            folded.sample(static_cast<double>(v));
    }

    void fold()
    {
        for (std::size_t v = 0; v < kRange; ++v) {
            folded.sample(static_cast<double>(v), pending[v]);
            pending[v] = 0;
        }
    }

    static constexpr std::size_t kRange = 12;
    StatSet direct, folded;
    std::array<std::uint64_t, kRange> pending{};
};

void
expectSameMoments(const stats::Distribution &a,
                  const stats::Distribution &b)
{
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.sum(), b.sum());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.stddev(), b.stddev());
}

void
expectSameStats(const StatSet &a, const StatSet &b)
{
    expectSameMoments(a.d, b.d);
    expectSameMoments(a.h.dist(), b.h.dist());
    for (unsigned i = 0; i < a.h.numBuckets(); ++i)
        EXPECT_EQ(a.h.bucketCount(i), b.h.bucketCount(i)) << i;
    EXPECT_EQ(a.h.underflow(), b.h.underflow());
    EXPECT_EQ(a.h.overflow(), b.h.overflow());
    EXPECT_EQ(obs::exportStatsJson(a.g), obs::exportStatsJson(b.g));
    EXPECT_EQ(a.save(), b.save());
}

TEST(Stats, FoldedCountsMatchSingleSamplesOnAMixedStream)
{
    FoldPair p;
    Rng rng(14);
    std::vector<std::uint8_t> saved_direct, saved_folded;
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t op = rng.below(1000);
        if (op < 950) {
            // Mostly inside the counted range, sometimes at or above.
            p.add(rng.chance(0.9)
                      ? rng.below(FoldPair::kRange)
                      : FoldPair::kRange + rng.below(30));
        } else if (op < 985) {
            // A fold at any point leaves the same stats.
            p.fold();
            expectSameStats(p.direct, p.folded);
        } else if (op < 988) {
            // The warm-up reset: the core folds before it resets.
            p.fold();
            p.direct.g.resetAll();
            p.folded.g.resetAll();
        } else if (op < 995 || saved_direct.empty()) {
            // A checkpoint: the core folds before it saves.
            p.fold();
            saved_direct = p.direct.save();
            saved_folded = p.folded.save();
            EXPECT_EQ(saved_direct, saved_folded);
        } else {
            // A restore drops what was counted since the save.
            p.pending.fill(0);
            p.direct.restore(saved_direct);
            p.folded.restore(saved_folded);
        }
    }
    p.fold();
    ASSERT_GT(p.direct.d.count(), 0u);
    EXPECT_GT(p.direct.h.underflow(), 0u);
    EXPECT_GT(p.direct.h.overflow(), 0u);
    expectSameStats(p.direct, p.folded);
    // A final round trip through a snapshot keeps them identical.
    p.direct.restore(p.direct.save());
    p.folded.restore(p.folded.save());
    expectSameStats(p.direct, p.folded);
}

} // namespace
} // namespace s64v
