/**
 * @file
 * Dense matrix / vector algebra for the regression pipeline.
 *
 * Small, row-major, double-precision matrices. The prediction
 * problems in the paper involve at most ~100 samples x ~101 features,
 * so simplicity and numerical robustness (Householder QR for least
 * squares, partial pivoting for solves) beat raw throughput here.
 */

#ifndef VMARGIN_STATS_MATRIX_HH
#define VMARGIN_STATS_MATRIX_HH

#include <cstddef>
#include <vector>

namespace vmargin::stats
{

using Vector = std::vector<double>;

/** Row-major dense matrix of doubles. */
class Matrix
{
  public:
    /** Empty 0x0 matrix. */
    Matrix() = default;

    /** @p rows x @p cols matrix filled with @p fill. */
    Matrix(size_t rows, size_t cols, double fill = 0.0);

    /** Build from nested initializer data (rows of equal length). */
    static Matrix fromRows(const std::vector<Vector> &rows);


    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }

    /** Element access; bounds-checked via assertions in debug. */
    double &operator()(size_t r, size_t c);
    double operator()(size_t r, size_t c) const;

    /** Copy of row @p r. */
    Vector row(size_t r) const;

    /** Copy of column @p c. */
    Vector col(size_t c) const;

    /** Set row @p r from @p values (size must match cols). */
    void setRow(size_t r, const Vector &values);

    /** Transposed copy. */
    Matrix transposed() const;

    /** Matrix product this * other. */
    Matrix multiply(const Matrix &other) const;

    /** Matrix-vector product this * v. */
    Vector multiply(const Vector &v) const;

    /** New matrix keeping only the given column indices, in order. */
    Matrix selectColumns(const std::vector<size_t> &indices) const;

    /** Append a column of ones on the left (intercept column). */
    Matrix withInterceptColumn() const;

  private:
    size_t rows_ = 0;
    size_t cols_ = 0;
    std::vector<double> data_;
};

/** Dot product; sizes must match. */
double dot(const Vector &a, const Vector &b);

/**
 * Solve the square system A x = b by Gaussian elimination with
 * partial pivoting. Panics if A is singular to working precision.
 */
Vector solveLinearSystem(Matrix a, Vector b);

/**
 * Minimum-norm least squares: minimize ||A x - b||_2 using
 * Householder QR with column norm safeguards. Works for
 * over-determined systems; rank-deficient columns get coefficient 0.
 */
Vector leastSquares(const Matrix &a, const Vector &b);

} // namespace vmargin::stats

#endif // VMARGIN_STATS_MATRIX_HH
