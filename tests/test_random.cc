#include "common/random.hh"

#include <gtest/gtest.h>

namespace s64v
{
namespace
{

TEST(Rng, Deterministic)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowInRange)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, GeometricMean)
{
    Rng rng(9);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.geometric(6.0);
    EXPECT_NEAR(sum / n, 6.0, 0.4);
}

TEST(Rng, GeometricMinimumIsOne)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(rng.geometric(1.5), 1u);
}

TEST(Rng, PickCumulativeHonorsWeights)
{
    Rng rng(17);
    std::vector<double> cdf = {1.0, 1.0 + 9.0}; // weights 1 and 9.
    int second = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
        if (rng.pickCumulative(cdf) == 1)
            ++second;
    }
    EXPECT_NEAR(second / double(n), 0.9, 0.03);
}

TEST(Zipf, Skew0IsUniformish)
{
    Rng rng(21);
    ZipfSampler z(4, 0.0);
    std::vector<int> counts(4, 0);
    for (int i = 0; i < 8000; ++i)
        ++counts[z.sample(rng)];
    for (int c : counts)
        EXPECT_NEAR(c, 2000, 250);
}

TEST(Zipf, SkewFavorsLowRanks)
{
    Rng rng(23);
    ZipfSampler z(100, 1.0);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 20000; ++i)
        ++counts[z.sample(rng)];
    EXPECT_GT(counts[0], counts[50] * 5);
}

} // namespace
} // namespace s64v
