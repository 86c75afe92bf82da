/**
 * @file
 * Lightweight statistics package, loosely modelled on gem5's: named
 * scalar counters registered in groups, derived formula values,
 * sampled distributions and bucketed histograms. Every model
 * component owns a StatGroup. The one rendering of the tree, the
 * stats JSON document, and the interval deltas are built on the
 * Visitor API by src/obs/ (obs/stats_export.hh, obs/sampler.hh).
 */

#ifndef S64V_COMMON_STATS_HH
#define S64V_COMMON_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace s64v::ckpt
{
class SnapshotWriter;
class SnapshotReader;
} // namespace s64v::ckpt

namespace s64v::stats
{

/** A single named 64-bit event counter. */
class Scalar
{
  public:
    Scalar() = default;

    Scalar &operator++() { ++value_; return *this; }
    Scalar &operator+=(std::uint64_t n) { value_ += n; return *this; }

    std::uint64_t value() const { return value_; }
    /** Overwrite the count (checkpoint restore only). */
    void set(std::uint64_t v) { value_ = v; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Running moments of a sampled quantity: count, min, max, mean and
 * standard deviation, without storing individual samples.
 */
class Distribution
{
  public:
    Distribution() = default;

    /**
     * Record @p n occurrences of the value @p v. Inline: per-event
     * samples (a cache's per-lookup MSHR occupancy) and the core's
     * fold of its per-value counts take this path.
     */
    void sample(double v, std::uint64_t n = 1)
    {
        if (n == 0)
            return;
        if (count_ == 0 || v < min_)
            min_ = v;
        if (count_ == 0 || v > max_)
            max_ = v;
        count_ += n;
        const double dn = static_cast<double>(n);
        sum_ += v * dn;
        sumSq_ += v * v * dn;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double mean() const;
    /** Population standard deviation. */
    double stddev() const;

    /** Discard every sample. */
    void reset();

    /** Serialize the running moments (checkpoint/restore). */
    void saveState(ckpt::SnapshotWriter &w) const;
    void restoreState(ckpt::SnapshotReader &r);

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double sumSq_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * A Distribution plus equal-width bucket counts over [lo, hi).
 * Samples below lo / at or above hi land in the underflow / overflow
 * buckets, so no sample is ever dropped.
 */
class Histogram
{
  public:
    /** A histogram of @p buckets equal-width buckets over [lo, hi). */
    Histogram(double lo, double hi, unsigned buckets);

    /**
     * Record @p n occurrences of the value @p v. Inline for the same
     * reason as Distribution::sample.
     */
    void sample(double v, std::uint64_t n = 1)
    {
        dist_.sample(v, n);
        if (v < lo_) {
            underflow_ += n;
        } else if (v >= hi_) {
            overflow_ += n;
        } else {
            counts_[bucketOf(v)] += n;
        }
    }

    const Distribution &dist() const { return dist_; }
    double lo() const { return lo_; }
    double hi() const { return hi_; }
    unsigned numBuckets() const
    {
        return static_cast<unsigned>(counts_.size());
    }
    double bucketWidth() const
    {
        return (hi_ - lo_) / static_cast<double>(counts_.size());
    }
    std::uint64_t bucketCount(unsigned i) const { return counts_[i]; }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }

    void reset();

    /** Serialize samples; the bucket layout must already match. */
    void saveState(ckpt::SnapshotWriter &w) const;
    void restoreState(ckpt::SnapshotReader &r);

  private:
    /** Bucket of an in-range value @p v (lo <= v < hi). */
    std::size_t bucketOf(double v) const
    {
        const auto i = static_cast<std::size_t>((v - lo_) / bucketWidth());
        return i < counts_.size() ? i : counts_.size() - 1; // edge at hi.
    }

    Distribution dist_;
    double lo_;
    double hi_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
};

class Group;

/**
 * Read-only traversal of a Group tree. Implement the callbacks you
 * care about; visitation order within a group is scalars, formulas,
 * distributions, histograms, then child groups (each map in name
 * order).
 */
class Visitor
{
  public:
    virtual ~Visitor() = default;

    virtual void beginGroup(const Group &g) { (void)g; }
    virtual void endGroup(const Group &g) { (void)g; }
    virtual void visitScalar(const Group &g, const std::string &name,
                             const std::string &desc, const Scalar &s)
    {
        (void)g; (void)name; (void)desc; (void)s;
    }
    virtual void visitFormula(const Group &g, const std::string &name,
                              const std::string &desc, double value)
    {
        (void)g; (void)name; (void)desc; (void)value;
    }
    virtual void visitDistribution(const Group &g,
                                   const std::string &name,
                                   const std::string &desc,
                                   const Distribution &d)
    {
        (void)g; (void)name; (void)desc; (void)d;
    }
    virtual void visitHistogram(const Group &g, const std::string &name,
                                const std::string &desc,
                                const Histogram &h)
    {
        (void)g; (void)name; (void)desc; (void)h;
    }
};

/**
 * A named collection of counters and derived formulas, optionally
 * nested under a parent group ("cpu0.l1d.hits").
 */
class Group
{
  public:
    /**
     * @param name group name; used as a dotted path prefix.
     * @param parent enclosing group, or nullptr for a root group.
     */
    explicit Group(std::string name, Group *parent = nullptr);

    /** Register a counter under @p name with a description. */
    Scalar &scalar(const std::string &name, const std::string &desc);

    /**
     * Register a derived value computed on demand when read
     * (e.g. miss ratio = misses / accesses).
     */
    void formula(const std::string &name, const std::string &desc,
                 std::function<double()> fn);

    /** Register a sampled distribution (min/max/mean/stddev). */
    Distribution &distribution(const std::string &name,
                               const std::string &desc);

    /**
     * Register a bucketed histogram over [lo, hi) with @p buckets
     * equal-width buckets (plus underflow/overflow). A name already
     * registered returns its histogram, first layout and all.
     */
    Histogram &histogram(const std::string &name,
                         const std::string &desc, double lo, double hi,
                         unsigned buckets);

    /** Look up a counter by local name; panics if missing. */
    const Scalar &lookup(const std::string &name) const;

    /** Evaluate a formula by local name; panics if missing. */
    double evaluate(const std::string &name) const;

    /** Look up a histogram by local name; panics if missing. */
    const Histogram &lookupHistogram(const std::string &name) const;

    /** Reset all counters here and in child groups. */
    void resetAll();

    /** Full dotted path of this group. */
    const std::string &path() const { return path_; }

    /** Local (last path component) name of this group. */
    std::string localName() const;

    /** Walk this group and all children with @p v. */
    void visit(Visitor &v) const;

    /**
     * Serialize every scalar/distribution/histogram in this group and
     * all children, tagged with local names for validation. Formulas
     * are derived and carry no state. Restore requires the identical
     * registration tree (same machine configuration) and rejects a
     * mismatched snapshot through the reader's diagnostics.
     */
    void saveState(ckpt::SnapshotWriter &w) const;
    void restoreState(ckpt::SnapshotReader &r);

  private:
    struct Entry
    {
        std::string desc;
        Scalar counter;
    };
    struct Formula
    {
        std::string desc;
        std::function<double()> fn;
    };
    struct DistEntry
    {
        std::string desc;
        Distribution dist;
    };
    struct HistEntry
    {
        std::string desc;
        Histogram hist;
    };

    std::string path_;
    Group *parent_;
    std::vector<Group *> children_;
    std::map<std::string, Entry> scalars_;
    std::map<std::string, Formula> formulas_;
    std::map<std::string, DistEntry> distributions_;
    std::map<std::string, HistEntry> histograms_;
};

} // namespace s64v::stats

#endif // S64V_COMMON_STATS_HH
