/**
 * @file
 * Unit tests for feature standardization.
 */

#include <gtest/gtest.h>

#include "stats/metrics.hh"
#include "stats/scaler.hh"

namespace vmargin::stats
{
namespace
{

TEST(Scaler, ZeroMeanUnitVariance)
{
    const Matrix x = Matrix::fromRows(
        {{1, 100}, {2, 200}, {3, 300}, {4, 400}});
    StandardScaler scaler;
    const Matrix xs = scaler.fitTransform(x);
    for (size_t c = 0; c < xs.cols(); ++c) {
        EXPECT_NEAR(mean(xs.col(c)), 0.0, 1e-12);
        EXPECT_NEAR(variance(xs.col(c)), 1.0, 1e-12);
    }
}

TEST(Scaler, ConstantColumnMapsToZero)
{
    const Matrix x = Matrix::fromRows({{7, 1}, {7, 2}, {7, 3}});
    StandardScaler scaler;
    const Matrix xs = scaler.fitTransform(x);
    for (size_t r = 0; r < xs.rows(); ++r)
        EXPECT_DOUBLE_EQ(xs(r, 0), 0.0);
}

TEST(Scaler, TransformUsesTrainingStatistics)
{
    const Matrix train = Matrix::fromRows({{0.0}, {10.0}});
    StandardScaler scaler;
    scaler.fit(train);
    // mean 5, stddev 5 -> 20 maps to 3.
    const Matrix out = scaler.transform(Matrix::fromRows({{20.0}}));
    EXPECT_NEAR(out(0, 0), 3.0, 1e-12);
}

TEST(Scaler, ExposesMoments)
{
    const Matrix train = Matrix::fromRows({{0.0}, {10.0}});
    StandardScaler scaler;
    scaler.fit(train);
    EXPECT_DOUBLE_EQ(scaler.means()[0], 5.0);
    EXPECT_DOUBLE_EQ(scaler.stddevs()[0], 5.0);
    EXPECT_TRUE(scaler.trained());
}

TEST(Scaler, DeathBeforeFit)
{
    StandardScaler scaler;
    EXPECT_DEATH(scaler.transform(Matrix(1, 1)),
                 "transform before fit");
}

TEST(Scaler, DeathOnColumnMismatch)
{
    StandardScaler scaler;
    scaler.fit(Matrix(2, 2));
    EXPECT_DEATH(scaler.transform(Matrix(2, 3)), "columns");
}

} // namespace
} // namespace vmargin::stats
