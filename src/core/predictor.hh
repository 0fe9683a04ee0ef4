/**
 * @file
 * Prediction pipeline (paper section 4, third contribution).
 *
 * Linear regression over PMU counter features predicts either the
 * safe Vmin of a (core, workload) pair (case 1) or the severity of a
 * (core, workload, voltage) triple (cases 2 and 3). Feature count is
 * reduced to 5 with Recursive Feature Elimination; accuracy is
 * reported as R2 and RMSE against the naive mean-of-training-targets
 * baseline.
 */

#ifndef VMARGIN_CORE_PREDICTOR_HH
#define VMARGIN_CORE_PREDICTOR_HH

#include <string>
#include <vector>

#include "framework.hh"
#include "profiler.hh"
#include "stats/linreg.hh"
#include "stats/metrics.hh"
#include "stats/rfe.hh"
#include "stats/split.hh"

namespace vmargin
{

/** A regression dataset with provenance. */
struct Dataset
{
    stats::Matrix x;
    stats::Vector y;
    std::vector<std::string> sampleIds;
    std::vector<std::string> featureNames;
};

/**
 * Case 1 dataset: one sample per profiled workload, features are the
 * 101 per-kilo-instruction counters, target is the workload's safe
 * Vmin on @p core taken from the characterization report.
 */
Dataset buildVminDataset(
    const std::vector<WorkloadCounters> &profiles,
    const CharacterizationReport &report, CoreId core);

/**
 * Case 2/3 dataset: one sample per (workload, measured voltage) with
 * non-zero severity on @p core. Features are the counters plus the
 * voltage (the paper's construction); target is the severity.
 */
Dataset buildSeverityDataset(
    const std::vector<WorkloadCounters> &profiles,
    const CharacterizationReport &report, CoreId core);

/** RFE + OLS predictor over counter features. */
class LinearPredictor
{
  public:
    /**
     * Select @p keep features by RFE and fit OLS on them.
     * @param drop_per_round RFE pruning batch (speed/fidelity knob)
     */
    void fit(const stats::Matrix &x, const stats::Vector &y,
             size_t keep, size_t drop_per_round = 1);

    /** Predict one sample given the *full* feature vector. */
    double predict(const stats::Vector &full_sample) const;

    /** Predict every row of a full feature matrix. */
    stats::Vector predictAll(const stats::Matrix &x) const;

    /** Indices of the selected features (into the full columns). */
    const std::vector<size_t> &selectedFeatures() const
    {
        return selected_;
    }

    bool trained() const { return model_.trained(); }

    const stats::LinearRegression &model() const { return model_; }

  private:
    stats::LinearRegression model_;
    std::vector<size_t> selected_;
};

/** Outcome of one train/evaluate experiment. */
struct EvaluationResult
{
    double r2 = 0.0;
    double rmse = 0.0;
    double naiveRmse = 0.0;
    double naiveR2 = 0.0;
    size_t trainSamples = 0;
    size_t testSamples = 0;
    std::vector<size_t> selectedFeatures;
    std::vector<std::string> selectedFeatureNames;
    stats::Vector truth;
    stats::Vector predicted;
};

/** Evaluation knobs (paper defaults). */
struct EvaluationConfig
{
    size_t keepFeatures = 5;
    double testFraction = 0.2;
    Seed splitSeed = 7;
    size_t rfeDropPerRound = 1; ///< classical RFE (sklearn step=1)
};

/**
 * 80/20 split, RFE + OLS on the training side, metrics on the test
 * side, naive baseline for comparison.
 */
EvaluationResult evaluatePredictor(const Dataset &dataset,
                                   const EvaluationConfig &config);

/** k-fold cross-validation aggregate of evaluatePredictor. */
struct CrossValidationResult
{
    double meanR2 = 0.0;
    double meanRmse = 0.0;
    double meanNaiveRmse = 0.0;
    std::vector<double> foldR2;
    std::vector<double> foldRmse;
};

/**
 * k-fold cross validation of the RFE+OLS pipeline: feature
 * selection and fitting happen inside each fold (no leakage).
 */
CrossValidationResult crossValidate(const Dataset &dataset,
                                    size_t folds,
                                    const EvaluationConfig &config);

} // namespace vmargin

#endif // VMARGIN_CORE_PREDICTOR_HH
