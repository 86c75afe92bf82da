#include "common/stats.hh"

#include <cmath>
#include <cstdlib>

#include "ckpt/snapshot.hh"
#include "common/logging.hh"

namespace s64v::stats
{

namespace
{

/**
 * Replay every pending tally of @p tally into @p sink as one bulk
 * sample per value, then clear it. Values ascend, but the order does
 * not matter: integer samples keep every sum exact.
 */
template <typename Sink>
void
foldTally(std::vector<std::uint64_t> &tally, Sink &sink)
{
    for (std::size_t v = 0; v < tally.size(); ++v) {
        if (tally[v]) {
            sink.sample(static_cast<double>(v), tally[v]);
            tally[v] = 0;
        }
    }
}

} // namespace

void
Distribution::fold()
{
    foldTally(tally_, *this);
}

void
Distribution::setTallyRange(std::size_t range)
{
    fold();
    tally_.assign(range, 0);
}

double
Distribution::mean() const
{
    settle();
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double
Distribution::stddev() const
{
    settle();
    if (count_ == 0)
        return 0.0;
    const double n = static_cast<double>(count_);
    const double var = sumSq_ / n - (sum_ / n) * (sum_ / n);
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

void
Distribution::reset()
{
    count_ = 0;
    sum_ = sumSq_ = 0.0;
    min_ = max_ = 0.0;
    tally_.assign(tally_.size(), 0);
}

void
Histogram::configure(double lo, double hi, unsigned buckets)
{
    if (buckets == 0 || hi <= lo)
        panic("histogram: bad layout [%g, %g) x %u", lo, hi, buckets);
    lo_ = lo;
    hi_ = hi;
    counts_.assign(buckets, 0);
    dist_.reset();
    underflow_ = overflow_ = 0;
    tally_.assign(tally_.size(), 0);
}

void
Histogram::fold()
{
    foldTally(tally_, *this);
}

void
Histogram::setTallyRange(std::size_t range)
{
    fold();
    tally_.assign(range, 0);
}

void
Histogram::sampleUnconfigured() const
{
    panic("histogram: sample() before configure()");
    std::abort(); // panic may return when throw-on-error is armed.
}

void
Histogram::reset()
{
    dist_.reset();
    counts_.assign(counts_.size(), 0);
    underflow_ = overflow_ = 0;
    tally_.assign(tally_.size(), 0);
}

Group::Group(std::string name, Group *parent)
    : parent_(parent)
{
    if (parent_) {
        path_ = parent_->path_ + "." + name;
        parent_->children_.push_back(this);
    } else {
        path_ = std::move(name);
    }
}

std::string
Group::localName() const
{
    const auto dot = path_.rfind('.');
    return dot == std::string::npos ? path_ : path_.substr(dot + 1);
}

Scalar &
Group::scalar(const std::string &name, const std::string &desc)
{
    auto [it, inserted] = scalars_.try_emplace(name);
    if (inserted)
        it->second.desc = desc;
    return it->second.counter;
}

void
Group::formula(const std::string &name, const std::string &desc,
               std::function<double()> fn)
{
    formulas_[name] = Formula{desc, std::move(fn)};
}

Distribution &
Group::distribution(const std::string &name, const std::string &desc)
{
    auto [it, inserted] = distributions_.try_emplace(name);
    if (inserted)
        it->second.desc = desc;
    return it->second.dist;
}

Histogram &
Group::histogram(const std::string &name, const std::string &desc,
                 double lo, double hi, unsigned buckets)
{
    auto [it, inserted] = histograms_.try_emplace(name);
    if (inserted) {
        it->second.desc = desc;
        it->second.hist.configure(lo, hi, buckets);
    }
    return it->second.hist;
}

const Scalar &
Group::lookup(const std::string &name) const
{
    auto it = scalars_.find(name);
    if (it == scalars_.end())
        panic("stat '%s' not found in group '%s'",
              name.c_str(), path_.c_str());
    return it->second.counter;
}

double
Group::evaluate(const std::string &name) const
{
    auto it = formulas_.find(name);
    if (it == formulas_.end())
        panic("formula '%s' not found in group '%s'",
              name.c_str(), path_.c_str());
    return it->second.fn();
}

const Histogram &
Group::lookupHistogram(const std::string &name) const
{
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        panic("histogram '%s' not found in group '%s'",
              name.c_str(), path_.c_str());
    return it->second.hist;
}

void
Group::resetAll()
{
    for (auto &[name, entry] : scalars_)
        entry.counter.reset();
    for (auto &[name, entry] : distributions_)
        entry.dist.reset();
    for (auto &[name, entry] : histograms_)
        entry.hist.reset();
    for (Group *child : children_)
        child->resetAll();
}

void
Group::visit(Visitor &v) const
{
    v.beginGroup(*this);
    for (const auto &[name, entry] : scalars_)
        v.visitScalar(*this, name, entry.desc, entry.counter);
    for (const auto &[name, f] : formulas_)
        v.visitFormula(*this, name, f.desc, f.fn());
    for (const auto &[name, d] : distributions_)
        v.visitDistribution(*this, name, d.desc, d.dist);
    for (const auto &[name, h] : histograms_)
        v.visitHistogram(*this, name, h.desc, h.hist);
    for (const Group *child : children_)
        child->visit(v);
    v.endGroup(*this);
}

void
Distribution::saveState(ckpt::SnapshotWriter &w) const
{
    settle();
    w.putU64(count_);
    w.putDouble(sum_);
    w.putDouble(sumSq_);
    w.putDouble(min_);
    w.putDouble(max_);
}

void
Distribution::restoreState(ckpt::SnapshotReader &r)
{
    count_ = r.getU64();
    sum_ = r.getDouble();
    sumSq_ = r.getDouble();
    min_ = r.getDouble();
    max_ = r.getDouble();
    tally_.assign(tally_.size(), 0);
}

void
Histogram::saveState(ckpt::SnapshotWriter &w) const
{
    settle();
    dist_.saveState(w);
    w.putU64(counts_.size());
    for (std::uint64_t c : counts_)
        w.putU64(c);
    w.putU64(underflow_);
    w.putU64(overflow_);
}

void
Histogram::restoreState(ckpt::SnapshotReader &r)
{
    dist_.restoreState(r);
    const std::uint64_t buckets = r.getU64();
    r.require(buckets == counts_.size(),
              "histogram bucket count differs");
    for (auto &c : counts_)
        c = r.getU64();
    underflow_ = r.getU64();
    overflow_ = r.getU64();
    tally_.assign(tally_.size(), 0);
}

void
Group::saveState(ckpt::SnapshotWriter &w) const
{
    // Local names tag every stat so a restore into a differently
    // configured machine fails loudly instead of shifting counters.
    w.putU32(static_cast<std::uint32_t>(scalars_.size()));
    for (const auto &[name, entry] : scalars_) {
        w.putString(name);
        w.putU64(entry.counter.value());
    }
    w.putU32(static_cast<std::uint32_t>(distributions_.size()));
    for (const auto &[name, d] : distributions_) {
        w.putString(name);
        d.dist.saveState(w);
    }
    w.putU32(static_cast<std::uint32_t>(histograms_.size()));
    for (const auto &[name, h] : histograms_) {
        w.putString(name);
        h.hist.saveState(w);
    }
    w.putU32(static_cast<std::uint32_t>(children_.size()));
    for (const Group *child : children_) {
        w.putString(child->localName());
        child->saveState(w);
    }
}

void
Group::restoreState(ckpt::SnapshotReader &r)
{
    r.require(r.getU32() == scalars_.size(),
              "stat group scalar count differs");
    for (auto &[name, entry] : scalars_) {
        r.require(r.getString() == name, "stat scalar name differs");
        entry.counter.set(r.getU64());
    }
    r.require(r.getU32() == distributions_.size(),
              "stat group distribution count differs");
    for (auto &[name, d] : distributions_) {
        r.require(r.getString() == name,
                  "stat distribution name differs");
        d.dist.restoreState(r);
    }
    r.require(r.getU32() == histograms_.size(),
              "stat group histogram count differs");
    for (auto &[name, h] : histograms_) {
        r.require(r.getString() == name, "stat histogram name differs");
        h.hist.restoreState(r);
    }
    r.require(r.getU32() == children_.size(),
              "stat group child count differs");
    for (Group *child : children_) {
        r.require(r.getString() == child->localName(),
                  "stat group child name differs");
        child->restoreState(r);
    }
}

} // namespace s64v::stats
