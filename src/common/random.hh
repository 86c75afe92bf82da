/**
 * @file
 * Deterministic pseudo-random number generation for workload
 * synthesis. All randomness in the model flows through Rng so that a
 * given seed reproduces a bit-identical trace and simulation.
 */

#ifndef S64V_COMMON_RANDOM_HH
#define S64V_COMMON_RANDOM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace s64v
{

/**
 * Combine two seeds into one well-mixed 64-bit seed. Used to derive
 * per-component seeds (trace synthesis, fault-storm cycles, sweep
 * shuffling) from one campaign/process seed without the streams
 * becoming correlated: mixSeeds(s, a) and mixSeeds(s, b) differ in
 * about half their bits for any a != b.
 */
std::uint64_t mixSeeds(std::uint64_t a, std::uint64_t b);

/**
 * xoshiro256** generator, seeded via splitmix64. Small, fast, and
 * statistically strong enough for workload synthesis.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed. Any seed (incl. 0) is valid. */
    explicit Rng(std::uint64_t seed = 1);

    /** @return next raw 64-bit value. */
    std::uint64_t next();

    /** @return uniform integer in [0, bound). @p bound must be > 0. */
    std::uint64_t below(std::uint64_t bound);

    /** @return uniform double in [0, 1). */
    double uniform();

    /** @return true with probability @p p (clamped to [0,1]). */
    bool chance(double p);

    /**
     * Sample a geometric distribution with mean @p mean, shifted so
     * the minimum value is 1. Used for basic-block lengths.
     */
    unsigned geometric(double mean);

    /**
     * Sample an index from a discrete distribution given cumulative
     * weights (last element is the total weight).
     */
    std::size_t pickCumulative(const std::vector<double> &cumulative);

  private:
    std::uint64_t s_[4];
};

/**
 * Precomputed Zipf sampler over ranks [0, n). Used for hot/cold code
 * and data locality in the workload generators.
 */
class ZipfSampler
{
  public:
    /**
     * @param n number of distinct items (> 0).
     * @param skew Zipf exponent; 0 degenerates to uniform.
     */
    ZipfSampler(std::size_t n, double skew);

    /** @return sampled rank in [0, n). Rank 0 is the hottest item. */
    std::size_t sample(Rng &rng) const;

    std::size_t size() const { return cdf_.size(); }

  private:
    std::vector<double> cdf_;
};

} // namespace s64v

#endif // S64V_COMMON_RANDOM_HH
