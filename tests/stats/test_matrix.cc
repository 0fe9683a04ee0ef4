/**
 * @file
 * Unit tests for the dense matrix algebra.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "stats/matrix.hh"
#include "util/rng.hh"

namespace vmargin::stats
{
namespace
{

TEST(Matrix, ConstructionAndAccess)
{
    Matrix m(2, 3, 1.5);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
    m(1, 2) = 4.0;
    EXPECT_DOUBLE_EQ(m(1, 2), 4.0);
}

TEST(Matrix, FromRows)
{
    const Matrix m = Matrix::fromRows({{1, 2}, {3, 4}, {5, 6}});
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 2u);
    EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(Matrix, RowColExtraction)
{
    const Matrix m = Matrix::fromRows({{1, 2}, {3, 4}});
    const Vector row = m.row(1);
    const Vector col = m.col(0);
    EXPECT_EQ(row, (Vector{3, 4}));
    EXPECT_EQ(col, (Vector{1, 3}));
}

TEST(Matrix, SetRow)
{
    Matrix m(2, 2);
    m.setRow(0, {7, 8});
    EXPECT_DOUBLE_EQ(m(0, 1), 8.0);
}

TEST(Matrix, Transpose)
{
    const Matrix m = Matrix::fromRows({{1, 2, 3}, {4, 5, 6}});
    const Matrix t = m.transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 2u);
    EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(Matrix, Multiply)
{
    const Matrix a = Matrix::fromRows({{1, 2}, {3, 4}});
    const Matrix b = Matrix::fromRows({{5, 6}, {7, 8}});
    const Matrix c = a.multiply(b);
    EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
    EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
    EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MultiplyVector)
{
    const Matrix a = Matrix::fromRows({{1, 2}, {3, 4}});
    const Vector v = a.multiply(Vector{1, 1});
    EXPECT_EQ(v, (Vector{3, 7}));
}

TEST(Matrix, MultiplyByIdentity)
{
    const Matrix a = Matrix::fromRows({{1, 2}, {3, 4}});
    const Matrix c = a.multiply(Matrix::fromRows({{1, 0}, {0, 1}}));
    EXPECT_DOUBLE_EQ(c(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 4.0);
}

TEST(Matrix, SelectColumns)
{
    const Matrix m = Matrix::fromRows({{1, 2, 3}, {4, 5, 6}});
    const Matrix s = m.selectColumns({2, 0});
    EXPECT_EQ(s.cols(), 2u);
    EXPECT_DOUBLE_EQ(s(0, 0), 3.0);
    EXPECT_DOUBLE_EQ(s(1, 1), 4.0);
}

TEST(Matrix, InterceptColumn)
{
    const Matrix m = Matrix::fromRows({{2, 3}});
    const Matrix d = m.withInterceptColumn();
    EXPECT_EQ(d.cols(), 3u);
    EXPECT_DOUBLE_EQ(d(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(d(0, 1), 2.0);
}

TEST(VectorOps, Dot)
{
    EXPECT_DOUBLE_EQ(dot({3, 4}, {1, 2}), 11.0);
    EXPECT_DEATH(dot({1}, {1, 2}), "size mismatch");
}

TEST(Solve, KnownSystem)
{
    // 2x + y = 5; x - y = 1  ->  x = 2, y = 1
    const Matrix a = Matrix::fromRows({{2, 1}, {1, -1}});
    const Vector x = solveLinearSystem(a, {5, 1});
    EXPECT_NEAR(x[0], 2.0, 1e-12);
    EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(Solve, RequiresPivoting)
{
    // Zero pivot in the (0,0) slot forces a row swap.
    const Matrix a = Matrix::fromRows({{0, 1}, {1, 0}});
    const Vector x = solveLinearSystem(a, {3, 7});
    EXPECT_NEAR(x[0], 7.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Solve, RandomRoundTrip)
{
    util::Rng rng(3);
    const size_t n = 12;
    Matrix a(n, n);
    Vector truth(n);
    for (size_t r = 0; r < n; ++r) {
        truth[r] = rng.uniform(-2, 2);
        for (size_t c = 0; c < n; ++c)
            a(r, c) = rng.uniform(-1, 1);
        a(r, r) += 4.0; // keep well conditioned
    }
    const Vector b = a.multiply(truth);
    const Vector x = solveLinearSystem(a, b);
    for (size_t i = 0; i < n; ++i)
        EXPECT_NEAR(x[i], truth[i], 1e-9);
}

TEST(LeastSquares, ExactSystem)
{
    const Matrix a = Matrix::fromRows({{1, 0}, {0, 1}, {1, 1}});
    // b generated by x = (2, 3): residual zero.
    const Vector x = leastSquares(a, {2, 3, 5});
    EXPECT_NEAR(x[0], 2.0, 1e-10);
    EXPECT_NEAR(x[1], 3.0, 1e-10);
}

TEST(LeastSquares, OverdeterminedLine)
{
    // Fit y = 2t + 1 with noiseless samples.
    Matrix a(5, 2);
    Vector b(5);
    for (size_t i = 0; i < 5; ++i) {
        a(i, 0) = 1.0;
        a(i, 1) = static_cast<double>(i);
        b[i] = 1.0 + 2.0 * static_cast<double>(i);
    }
    const Vector x = leastSquares(a, b);
    EXPECT_NEAR(x[0], 1.0, 1e-10);
    EXPECT_NEAR(x[1], 2.0, 1e-10);
}

TEST(LeastSquares, RankDeficientColumnGetsZero)
{
    // Third column is identically zero: coefficient must be 0, the
    // rest of the fit unaffected.
    Matrix a(4, 3);
    Vector b(4);
    for (size_t i = 0; i < 4; ++i) {
        a(i, 0) = 1.0;
        a(i, 1) = static_cast<double>(i);
        a(i, 2) = 0.0;
        b[i] = 3.0 * static_cast<double>(i);
    }
    const Vector x = leastSquares(a, b);
    EXPECT_NEAR(x[1], 3.0, 1e-10);
    EXPECT_DOUBLE_EQ(x[2], 0.0);
}

TEST(LeastSquares, MinimizesResidual)
{
    util::Rng rng(9);
    Matrix a(30, 3);
    Vector b(30);
    for (size_t i = 0; i < 30; ++i) {
        for (size_t j = 0; j < 3; ++j)
            a(i, j) = rng.uniform(-1, 1);
        b[i] = rng.uniform(-1, 1);
    }
    const auto residual = [&](const Vector &x) {
        Vector r = a.multiply(x);
        for (size_t i = 0; i < r.size(); ++i)
            r[i] -= b[i];
        return std::sqrt(dot(r, r));
    };
    const Vector x = leastSquares(a, b);
    const double base = residual(x);
    // Any perturbation of the solution must not reduce the residual.
    for (size_t j = 0; j < 3; ++j) {
        for (double eps : {-1e-3, 1e-3}) {
            Vector y = x;
            y[j] += eps;
            EXPECT_GE(residual(y) + 1e-12, base);
        }
    }
}

} // namespace
} // namespace vmargin::stats
