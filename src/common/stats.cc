#include "common/stats.hh"

#include <cmath>

#include "ckpt/snapshot.hh"
#include "common/logging.hh"

namespace s64v::stats
{

double
Distribution::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double
Distribution::stddev() const
{
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
}

Histogram::Histogram(double lo, double hi, unsigned buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0)
{
    if (buckets == 0 || hi <= lo)
        panic("histogram: bad layout [%g, %g) x %u", lo, hi, buckets);
}

void
Histogram::reset()
{
    dist_.reset();
    counts_.assign(counts_.size(), 0);
    underflow_ = overflow_ = 0;
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
    return histograms_
        .try_emplace(name, HistEntry{desc, Histogram(lo, hi, buckets)})
        .first->second.hist;
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
Scalar::checkpoint(ckpt::Archive &ar)
{
    ar.u64(value_);
}

void
Distribution::checkpoint(ckpt::Archive &ar)
{
    ar.u64(count_);
    ar.f64(sum_);
    ar.f64(sumSq_);
    ar.f64(min_);
    ar.f64(max_);
}

void
Histogram::checkpoint(ckpt::Archive &ar)
{
    dist_.checkpoint(ar);
    ar.fixed64(counts_.size(), "histogram bucket count differs");
    for (std::uint64_t &c : counts_)
        ar.u64(c);
    ar.u64(underflow_);
    ar.u64(overflow_);
}

void
Group::checkpoint(ckpt::Archive &ar)
{
    // Local names tag every stat so a restore into a differently
    // configured machine fails loudly instead of shifting counters.
    ar.fixed32(static_cast<std::uint32_t>(scalars_.size()),
               "stat group scalar count differs");
    for (auto &[name, entry] : scalars_) {
        ar.tag(name, "stat scalar name differs");
        entry.counter.checkpoint(ar);
    }
    ar.fixed32(static_cast<std::uint32_t>(distributions_.size()),
               "stat group distribution count differs");
    for (auto &[name, d] : distributions_) {
        ar.tag(name, "stat distribution name differs");
        d.dist.checkpoint(ar);
    }
    ar.fixed32(static_cast<std::uint32_t>(histograms_.size()),
               "stat group histogram count differs");
    for (auto &[name, h] : histograms_) {
        ar.tag(name, "stat histogram name differs");
        h.hist.checkpoint(ar);
    }
    ar.fixed32(static_cast<std::uint32_t>(children_.size()),
               "stat group child count differs");
    for (Group *child : children_) {
        ar.tag(child->localName(), "stat group child name differs");
        child->checkpoint(ar);
    }
}

} // namespace s64v::stats
