/**
 * @file
 * Unit tests for the deterministic RNG layer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "util/rng.hh"

namespace vmargin::util
{
namespace
{

TEST(SplitMix, Deterministic)
{
    uint64_t s1 = 42, s2 = 42;
    EXPECT_EQ(splitMix64(s1), splitMix64(s2));
    EXPECT_EQ(s1, s2);
}

TEST(SplitMix, AdvancesState)
{
    uint64_t s = 42;
    const uint64_t a = splitMix64(s);
    const uint64_t b = splitMix64(s);
    EXPECT_NE(a, b);
}

TEST(MixSeed, OrderSensitive)
{
    EXPECT_NE(mixSeed(1, 2), mixSeed(2, 1));
}

TEST(MixSeed, NearbyInputsDiverge)
{
    // Adjacent experiment coordinates must produce unrelated seeds.
    const Seed a = mixSeed(100, 900);
    const Seed b = mixSeed(100, 905);
    EXPECT_NE(a, b);
    // Both halves of the word should differ (strong mixing).
    EXPECT_NE(a >> 32, b >> 32);
    EXPECT_NE(a & 0xffffffff, b & 0xffffffff);
}

TEST(HashSeed, StableAndDistinct)
{
    EXPECT_EQ(hashSeed("bwaves"), hashSeed("bwaves"));
    EXPECT_NE(hashSeed("bwaves"), hashSeed("bwave"));
    EXPECT_NE(hashSeed(""), hashSeed("a"));
}

TEST(Rng, ReproducibleStream)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(123), b(124);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(7);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntBoundsInclusive)
{
    Rng rng(11);
    std::set<int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = rng.uniformInt(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all values hit
}

TEST(Rng, UniformIntDegenerateRange)
{
    Rng rng(11);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(5, 5), 5);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    double sum = 0.0, sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, GaussianShifted)
{
    Rng rng(13);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
    // Out-of-range p is clamped, not UB.
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Rng, BernoulliRate)
{
    Rng rng(17);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliThresholdEdgeValues)
{
    constexpr uint64_t kOne = 1ULL << 53;
    EXPECT_EQ(Rng::bernoulliThreshold(0.0), 0u);
    EXPECT_EQ(Rng::bernoulliThreshold(-0.0), 0u);
    EXPECT_EQ(Rng::bernoulliThreshold(1.0), kOne);
    EXPECT_EQ(Rng::bernoulliThreshold(0x1.0p-53), 1u);
    EXPECT_EQ(Rng::bernoulliThreshold(1.0 - 0x1.0p-53), kOne - 1);
    EXPECT_EQ(Rng::bernoulliThreshold(0.5), kOne / 2);
    EXPECT_EQ(Rng::bernoulliThreshold(std::nextafter(0.5, 1.0)),
              kOne / 2 + 1);
    EXPECT_EQ(Rng::bernoulliThreshold(
                  std::numeric_limits<double>::denorm_min()),
              1u);
    EXPECT_EQ(Rng::bernoulliThreshold(-0.25), 0u);
    EXPECT_EQ(Rng::bernoulliThreshold(-1e300), 0u);
    EXPECT_EQ(Rng::bernoulliThreshold(1.5), kOne);
    EXPECT_EQ(Rng::bernoulliThreshold(
                  std::numeric_limits<double>::infinity()),
              kOne);
    EXPECT_EQ(Rng::bernoulliThreshold(std::nan("")), 0u);
}

/** The oracle: twin streams, one drawing bernoulliBelow against the
 *  threshold of @p p, the other comparing uniform() with @p p as it
 *  stands (no clamp; NaN compares false). */
void
expectTwinTrials(Rng &integer, Rng &real, double p, int trials)
{
    const uint64_t threshold = Rng::bernoulliThreshold(p);
    for (int i = 0; i < trials; ++i)
        ASSERT_EQ(integer.bernoulliBelow(threshold), real.uniform() < p)
            << "p = " << p << ", trial " << i;
}

TEST(Rng, BernoulliBelowMatchesUniformCompare)
{
    Rng integer(23), real(23), pick(29);
    for (const double p :
         {0.0, 1.0, 0x1.0p-53, 1.0 - 0x1.0p-53, 0.5,
          std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::min(), -0.0, -0.5, -1e300, 1.5,
          1e300, std::numeric_limits<double>::infinity(),
          std::nan("")})
        expectTwinTrials(integer, real, p, 2000);
    for (int i = 0; i < 20000; ++i) {
        // Random p over [-0.1, 1.1), and small p down to 2^-60.
        const double p = i % 2 ? pick.uniform(-0.1, 1.1)
                               : std::ldexp(pick.uniform(),
                                            -static_cast<int>(
                                                pick.uniformInt(0, 60)));
        expectTwinTrials(integer, real, p, 8);
        if (testing::Test::HasFatalFailure())
            return;
    }
}

TEST(Rng, BernoulliBelowExactAtTheDrawnValue)
{
    // Random p almost never lands on the boundary, so aim at it: for
    // the very draw about to happen, set p to that draw's value and
    // its neighbours (equal is false, one ulp above is true).
    Rng integer(31), real(31);
    for (int i = 0; i < 20000; ++i) {
        Rng peek = integer;
        const double u = peek.uniform();
        for (const double p : {u, std::nextafter(u, 0.0),
                               std::nextafter(u, 2.0)}) {
            Rng a = integer, b = real;
            ASSERT_EQ(a.bernoulliBelow(Rng::bernoulliThreshold(p)),
                      b.uniform() < p)
                << "u = " << u << ", p = " << p;
        }
        integer.next();
        real.next();
    }
}

TEST(Rng, PoissonZeroMean)
{
    Rng rng(19);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, PoissonSmallMean)
{
    Rng rng(19);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.poisson(2.5));
    EXPECT_NEAR(sum / n, 2.5, 0.1);
}

TEST(Rng, PoissonLargeMeanUsesApproximation)
{
    Rng rng(19);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.poisson(200.0));
    EXPECT_NEAR(sum / n, 200.0, 2.0);
}

} // namespace
} // namespace vmargin::util
