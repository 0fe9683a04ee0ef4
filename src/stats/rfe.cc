#include "rfe.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "metrics.hh"
#include "scaler.hh"
#include "util/logging.hh"

namespace vmargin::stats
{

using util::panicf;

namespace
{

/**
 * Coefficients of a ridge fit on centered/standardized data over the
 * @p active columns of X: (X^T X + lambda I)^-1 X^T y. @p gram and
 * @p xty are X^T X and X^T y over every column: the active columns'
 * entries are the same sums, so each round selects them instead of
 * multiplying again. The tiny ridge term keeps the normal equations
 * solvable when features outnumber samples (101 counters vs 40-100
 * samples in the paper), mimicking numpy's lstsq behaviour inside
 * scikit-learn's RFE.
 */
Vector
ridgeWeights(const Matrix &gram, const Vector &xty,
             const std::vector<size_t> &active, double samples,
             double lambda)
{
    // Normalize by the sample count so lambda has a scale-free
    // meaning, then regularize. PMU counters come in families that
    // are near-exact multiples of each other (MEM_ACCESS_RD vs
    // LD_RETIRED, ...); without a meaningful ridge the coefficients
    // of such a family are unidentifiable and the |weight| ranking
    // RFE relies on becomes noise.
    const size_t k = active.size();
    Matrix sub(k, k);
    Vector rhs(k);
    for (size_t r = 0; r < k; ++r) {
        for (size_t c = 0; c < k; ++c)
            sub(r, c) = gram(active[r], active[c]) / samples;
        sub(r, r) += lambda;
        rhs[r] = xty[active[r]] / samples;
    }
    return solveLinearSystem(std::move(sub), std::move(rhs));
}

} // namespace

RfeResult
recursiveFeatureElimination(const Matrix &x, const Vector &y,
                            size_t keep, size_t drop_per_round)
{
    if (x.rows() == 0 || x.cols() == 0)
        panicf("RFE: empty feature matrix");
    if (x.rows() != y.size())
        panicf("RFE: ", x.rows(), " samples vs ", y.size(),
               " targets");
    if (keep == 0 || keep > x.cols())
        panicf("RFE: keep=", keep, " invalid for ", x.cols(),
               " features");
    if (drop_per_round == 0)
        panicf("RFE: drop_per_round must be >= 1");

    StandardScaler scaler;
    const Matrix xs = scaler.fitTransform(x);
    const double y_mean = mean(y);
    Vector yc(y.size());
    for (size_t i = 0; i < y.size(); ++i)
        yc[i] = y[i] - y_mean;

    std::vector<size_t> active(x.cols());
    std::iota(active.begin(), active.end(), size_t{0});

    const Matrix xt = xs.transposed();
    const Matrix gram = xt.multiply(xs);
    const Vector xty = xt.multiply(yc);

    RfeResult result;
    Vector weights;

    while (true) {
        weights = ridgeWeights(gram, xty, active,
                               static_cast<double>(x.rows()), 1e-3);

        if (active.size() == keep)
            break;

        // Rank active features by |weight| and drop the weakest.
        std::vector<size_t> order(active.size());
        std::iota(order.begin(), order.end(), size_t{0});
        std::sort(order.begin(), order.end(),
                  [&](size_t a, size_t b) {
                      return std::fabs(weights[a]) <
                             std::fabs(weights[b]);
                  });

        const size_t to_drop =
            std::min(drop_per_round, active.size() - keep);
        std::vector<size_t> drop_positions(
            order.begin(), order.begin() + static_cast<long>(to_drop));
        std::sort(drop_positions.begin(), drop_positions.end(),
                  std::greater<size_t>());
        for (size_t pos : drop_positions) {
            result.eliminationOrder.push_back(active[pos]);
            active.erase(active.begin() + static_cast<long>(pos));
        }
    }

    // Order the survivors by decreasing final importance.
    std::vector<size_t> order(active.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return std::fabs(weights[a]) > std::fabs(weights[b]);
    });
    for (size_t pos : order) {
        result.selected.push_back(active[pos]);
        result.finalWeights.push_back(weights[pos]);
    }
    return result;
}

} // namespace vmargin::stats
