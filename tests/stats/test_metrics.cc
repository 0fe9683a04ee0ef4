/**
 * @file
 * Unit tests for R2 / RMSE / MAE / correlation metrics.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "stats/metrics.hh"

namespace vmargin::stats
{
namespace
{

TEST(Mean, Basic)
{
    EXPECT_DOUBLE_EQ(mean({1, 2, 3}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Variance, Basic)
{
    EXPECT_DOUBLE_EQ(variance({2, 4, 4, 4, 5, 5, 7, 9}), 4.0);
    EXPECT_DOUBLE_EQ(stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.0);
    EXPECT_DOUBLE_EQ(variance({5}), 0.0);
}

TEST(R2, PerfectFit)
{
    EXPECT_DOUBLE_EQ(r2Score({1, 2, 3}, {1, 2, 3}), 1.0);
}

TEST(R2, MeanPredictionIsZero)
{
    EXPECT_NEAR(r2Score({1, 2, 3}, {2, 2, 2}), 0.0, 1e-12);
}

TEST(R2, WorseThanMeanIsNegative)
{
    EXPECT_LT(r2Score({1, 2, 3}, {3, 2, 1}), 0.0);
}

TEST(R2, ConstantTruth)
{
    EXPECT_DOUBLE_EQ(r2Score({5, 5, 5}, {5, 5, 5}), 1.0);
    EXPECT_DOUBLE_EQ(r2Score({5, 5, 5}, {4, 5, 6}), 0.0);
}

TEST(Rmse, KnownValue)
{
    // Residuals 3 and 4 -> RMSE = sqrt(25/2).
    EXPECT_DOUBLE_EQ(rmse({0, 0}, {3, 4}), std::sqrt(12.5));
    EXPECT_DOUBLE_EQ(rmse({1, 2}, {1, 2}), 0.0);
}

TEST(Metrics, DeathOnSizeMismatch)
{
    EXPECT_DEATH(r2Score({1, 2}, {1}), "size mismatch");
    EXPECT_DEATH(rmse({1}, {1, 2}), "size mismatch");
}

} // namespace
} // namespace vmargin::stats
