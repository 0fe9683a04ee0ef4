#include "scaler.hh"

#include <cmath>

#include "metrics.hh"
#include "util/logging.hh"

namespace vmargin::stats
{

using util::panicf;

void
StandardScaler::fit(const Matrix &x)
{
    if (x.rows() == 0)
        panicf("StandardScaler::fit: no samples");
    means_.assign(x.cols(), 0.0);
    stddevs_.assign(x.cols(), 0.0);
    for (size_t c = 0; c < x.cols(); ++c) {
        const Vector column = x.col(c);
        means_[c] = mean(column);
        stddevs_[c] = stddev(column);
    }
    trained_ = true;
}

Matrix
StandardScaler::transform(const Matrix &x) const
{
    if (!trained_)
        panicf("StandardScaler: transform before fit");
    if (x.cols() != means_.size())
        panicf("StandardScaler: ", x.cols(), " columns vs ",
               means_.size(), " fitted");
    Matrix out(x.rows(), x.cols());
    for (size_t r = 0; r < x.rows(); ++r)
        for (size_t c = 0; c < x.cols(); ++c)
            out(r, c) = stddevs_[c] > 0.0
                            ? (x(r, c) - means_[c]) / stddevs_[c]
                            : 0.0;
    return out;
}

Matrix
StandardScaler::fitTransform(const Matrix &x)
{
    fit(x);
    return transform(x);
}

} // namespace vmargin::stats
