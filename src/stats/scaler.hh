/**
 * @file
 * Feature standardization (zero mean, unit variance per column).
 *
 * RFE prunes features by comparing coefficient magnitudes, which is
 * only meaningful when features share a scale — the PMU counters span
 * many orders of magnitude, so the predictor standardizes before
 * selection exactly as the paper's scikit-learn pipeline does.
 */

#ifndef VMARGIN_STATS_SCALER_HH
#define VMARGIN_STATS_SCALER_HH

#include "matrix.hh"

namespace vmargin::stats
{

/** Per-column standardizer: x' = (x - mean) / stddev. */
class StandardScaler
{
  public:
    /** Learn per-column mean and standard deviation from @p x. */
    void fit(const Matrix &x);

    /**
     * Apply the learned transform. Constant columns (stddev 0) map
     * to 0 rather than dividing by zero.
     */
    Matrix transform(const Matrix &x) const;

    /** fit + transform in one call. */
    Matrix fitTransform(const Matrix &x);

    const Vector &means() const { return means_; }
    const Vector &stddevs() const { return stddevs_; }
    bool trained() const { return trained_; }

  private:
    Vector means_;
    Vector stddevs_;
    bool trained_ = false;
};

} // namespace vmargin::stats

#endif // VMARGIN_STATS_SCALER_HH
