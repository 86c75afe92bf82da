#include "common/random.hh"

#include <algorithm>
#include <cmath>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace s64v
{

namespace
{

constexpr std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

std::uint64_t
mixSeeds(std::uint64_t a, std::uint64_t b)
{
    // splitmix64 finalizer over an asymmetric combination, so
    // mixSeeds(a, b) != mixSeeds(b, a) and neither argument can
    // cancel the other.
    return mix64(mix64(a) ^ (b + 0x9e3779b97f4a7c15ull + (a << 6)));
}

Rng::Rng(std::uint64_t seed)
{
    // splitmix64 expansion; guarantees a nonzero state for any seed.
    std::uint64_t z = seed;
    for (auto &s : s_) {
        z += 0x9e3779b97f4a7c15ull;
        s = mix64(z);
    }
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    if (bound == 0)
        panic("Rng::below called with zero bound");
    // Rejection-free multiply-shift is fine for workload synthesis.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

unsigned
Rng::geometric(double mean)
{
    if (mean <= 1.0)
        return 1;
    // Shifted geometric: value = 1 + Geom(p), E[value] = mean.
    const double p = 1.0 / mean;
    double u = uniform();
    if (u <= 0.0)
        u = 0x1.0p-53;
    const double g = std::floor(std::log(u) / std::log1p(-p));
    // Cap the tail at 20x the mean: protects against pathological
    // samples without biasing the mean the way a fixed cap would.
    return 1 + static_cast<unsigned>(std::min(g, 20.0 * mean));
}

std::size_t
Rng::pickCumulative(const std::vector<double> &cumulative)
{
    if (cumulative.empty())
        panic("pickCumulative on empty distribution");
    const double total = cumulative.back();
    const double x = uniform() * total;
    auto it = std::upper_bound(cumulative.begin(), cumulative.end(), x);
    if (it == cumulative.end())
        --it;
    return static_cast<std::size_t>(it - cumulative.begin());
}

ZipfSampler::ZipfSampler(std::size_t n, double skew)
{
    if (n == 0)
        panic("ZipfSampler with zero population");
    cdf_.resize(n);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), skew);
        cdf_[i] = sum;
    }
}

std::size_t
ZipfSampler::sample(Rng &rng) const
{
    const double x = rng.uniform() * cdf_.back();
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), x);
    if (it == cdf_.end())
        --it;
    return static_cast<std::size_t>(it - cdf_.begin());
}

} // namespace s64v
