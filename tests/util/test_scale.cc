/**
 * @file
 * Unit tests for the saturating scaled-count helper the simulation
 * kernel uses for sampled-counter upscaling and PMU derivation, with
 * std::llround as the oracle for every product in its range.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "util/rng.hh"
#include "util/scale.hh"

namespace vmargin::util
{
namespace
{

TEST(ScaleCount, MatchesLlroundForInRangeProducts)
{
    const uint64_t counts[] = {0, 1, 2, 7, 127, 4096, 999999,
                               1234567890123ULL};
    const double factors[] = {0.0,  0.0004, 0.3,  0.5,  0.92,
                              1.0,  1.15,   2.0,  13.7, 1e6};
    for (const uint64_t n : counts)
        for (const double f : factors) {
            const double scaled = static_cast<double>(n) * f;
            ASSERT_LT(scaled, 9.2e18); // all in llround's range
            EXPECT_EQ(scaleCount(n, f),
                      static_cast<uint64_t>(std::llround(scaled)))
                << n << " * " << f;
        }
}

/** scaleCount(n, f) must equal llround(n * f) wherever llround is
 *  defined, i.e. for every positive product below 2^63. */
void
expectMatchesLlround(uint64_t n, double f)
{
    const double scaled = static_cast<double>(n) * f;
    ASSERT_GT(scaled, 0.0) << n << " * " << f;
    ASSERT_LT(scaled, 0x1.0p63) << n << " * " << f;
    ASSERT_EQ(scaleCount(n, f),
              static_cast<uint64_t>(std::llround(scaled)))
        << n << " * " << f << " = " << scaled;
}

TEST(ScaleCount, MatchesLlroundOnSeededRandomPairs)
{
    // Counts of every bit width and factors across 2^-40..2^40, so
    // products cover fractions, the half-integer band and the bands
    // where the double spacing reaches 1 and beyond.
    Rng rng(0x5CA1E);
    int compared = 0;
    for (int i = 0; i < 1000000; ++i) {
        const uint64_t n = rng.next() >> rng.uniformInt(0, 63);
        const double f = std::ldexp(rng.uniform(1.0, 2.0),
                                    static_cast<int>(
                                        rng.uniformInt(-40, 40)));
        const double scaled = static_cast<double>(n) * f;
        if (!(scaled > 0.0) || scaled >= 0x1.0p63)
            continue;
        expectMatchesLlround(n, f);
        if (testing::Test::HasFatalFailure())
            return;
        ++compared;
    }
    EXPECT_GT(compared, 500000);
}

TEST(ScaleCount, MatchesLlroundOnEdgeValues)
{
    // Exact k + 0.5 products, up to the last band (2^51..2^52) where
    // a double still holds a half.
    for (const uint64_t k :
         {0ULL, 1ULL, 2ULL, 1023ULL, (1ULL << 32) + 7,
          (1ULL << 51) - 1, (1ULL << 51), (1ULL << 52) - 1})
        expectMatchesLlround(2 * k + 1, 0.5);
    // Just below one half rounds down, at any integer part.
    const double below_half = std::nextafter(0.5, 0.0);
    expectMatchesLlround(1, below_half);
    EXPECT_EQ(scaleCount(1, below_half), 0u);
    for (const double k : {1.0, 7.0, 1e6, 0x1.0p40})
        expectMatchesLlround(1, std::nextafter(k + 0.5, 0.0));
    // Just above one half and the smallest positive products.
    expectMatchesLlround(1, std::nextafter(0.5, 1.0));
    expectMatchesLlround(1, std::numeric_limits<double>::denorm_min());
    expectMatchesLlround(1, std::numeric_limits<double>::min());
    // 2^52..2^53: every double is an integer, the fraction is 0.
    for (const uint64_t n :
         {1ULL << 52, (1ULL << 52) + 1, (1ULL << 53) - 1, 1ULL << 53})
        for (const double f : {1.0, 0.75, 1.5, 0.999999})
            expectMatchesLlround(n, f);
    // The largest double below 2^63, the top of llround's range.
    const double top = std::nextafter(0x1.0p63, 0.0);
    expectMatchesLlround(1, top);
    EXPECT_EQ(scaleCount(1, top), (1ULL << 63) - 1024);
}

TEST(ScaleCount, RoundsHalfAwayFromZero)
{
    EXPECT_EQ(scaleCount(5, 0.5), 3u);  // 2.5 -> 3
    EXPECT_EQ(scaleCount(5, 0.3), 2u);  // 1.5 -> 2
    EXPECT_EQ(scaleCount(1, 0.49), 0u); // 0.49 -> 0
    EXPECT_EQ(scaleCount(1, 0.51), 1u);
}

TEST(ScaleCount, SaturatesAtUint64MaxInsteadOfOverflowing)
{
    // llround would be undefined for every one of these.
    EXPECT_EQ(scaleCount(UINT64_MAX, 2.0), UINT64_MAX);
    EXPECT_EQ(scaleCount(1ULL << 62, 8.0), UINT64_MAX);
    EXPECT_EQ(scaleCount(1ULL << 63, 1e300), UINT64_MAX);
}

TEST(ScaleCount, ExactInTheCastOnlyBand)
{
    // Products in [2^63, 2^64) exceed llround's range but still fit
    // uint64_t: the helper must return the exact integer value of
    // the double product, not a clamp.
    const double product = static_cast<double>(1ULL << 62) * 2.5;
    EXPECT_EQ(scaleCount(1ULL << 62, 2.5),
              static_cast<uint64_t>(product));
    EXPECT_GT(scaleCount(1ULL << 62, 2.5), 1ULL << 63);
    EXPECT_LT(scaleCount(1ULL << 62, 2.5), UINT64_MAX);
}

TEST(ScaleCount, NegativeAndNanProductsClampToZero)
{
    EXPECT_EQ(scaleCount(100, -0.5), 0u);
    EXPECT_EQ(scaleCount(100, -1e300), 0u);
    EXPECT_EQ(scaleCount(100, std::nan("")), 0u);
}

} // namespace
} // namespace vmargin::util
