/**
 * @file
 * Model evaluation metrics used in the paper's prediction study:
 * coefficient of determination (R2) and root mean square error
 * (RMSE), plus supporting descriptive statistics.
 */

#ifndef VMARGIN_STATS_METRICS_HH
#define VMARGIN_STATS_METRICS_HH

#include "matrix.hh"

namespace vmargin::stats
{

/** Arithmetic mean; 0 for empty input. */
double mean(const Vector &values);

/** Population variance. */
double variance(const Vector &values);

/** Population standard deviation. */
double stddev(const Vector &values);

/**
 * Coefficient of determination. 1 is a perfect fit; 0 matches the
 * mean predictor; negative is worse than the mean predictor
 * (section 4 of the paper relies on exactly this interpretation).
 * When the true values are constant, returns 1 for an exact match
 * and 0 otherwise.
 */
double r2Score(const Vector &truth, const Vector &predicted);

/** Root mean square error between truth and prediction. */
double rmse(const Vector &truth, const Vector &predicted);

} // namespace vmargin::stats

#endif // VMARGIN_STATS_METRICS_HH
