#include "predictor.hh"

#include "util/logging.hh"

namespace vmargin
{

Dataset
buildVminDataset(const std::vector<WorkloadCounters> &profiles,
                 const CharacterizationReport &report, CoreId core)
{
    if (profiles.empty())
        util::panicf("buildVminDataset: no profiles");

    Dataset dataset;
    dataset.featureNames = counterFeatureNames();
    dataset.x = counterFeatureMatrix(profiles);
    dataset.y.reserve(profiles.size());
    for (const auto &profile : profiles) {
        dataset.y.push_back(static_cast<double>(
            report.cell(profile.workloadId, core).analysis.vmin));
        dataset.sampleIds.push_back(profile.workloadId);
    }
    return dataset;
}

Dataset
buildSeverityDataset(const std::vector<WorkloadCounters> &profiles,
                     const CharacterizationReport &report,
                     CoreId core)
{
    if (profiles.empty())
        util::panicf("buildSeverityDataset: no profiles");

    Dataset dataset;
    dataset.featureNames = counterFeatureNames();
    dataset.featureNames.push_back("VOLTAGE_MV");

    std::vector<stats::Vector> rows;
    for (const auto &profile : profiles) {
        // One sample per measured 5 mV step that showed abnormal
        // behaviour (severity > 0): counters at nominal + voltage.
        for (const auto &[voltage, sev] :
             report.cell(profile.workloadId, core)
                 .analysis.severityByVoltage) {
            if (sev <= 0.0)
                continue;
            stats::Vector row;
            row.reserve(sim::kNumPmuEvents + 1);
            for (size_t col = 0; col < sim::kNumPmuEvents; ++col)
                row.push_back(profile.perKilo(
                    static_cast<sim::PmuEvent>(col)));
            row.push_back(static_cast<double>(voltage));
            rows.push_back(std::move(row));
            dataset.y.push_back(sev);
            dataset.sampleIds.push_back(
                profile.workloadId + "@" + std::to_string(voltage));
        }
    }
    if (rows.empty())
        util::panicf("buildSeverityDataset: the characterization saw "
                     "no unsafe region on core ",
                     core);
    dataset.x = stats::Matrix::fromRows(rows);
    return dataset;
}

void
LinearPredictor::fit(const stats::Matrix &x, const stats::Vector &y,
                     size_t keep, size_t drop_per_round)
{
    const stats::RfeResult rfe = stats::recursiveFeatureElimination(
        x, y, keep, drop_per_round);
    selected_ = rfe.selected;
    model_.fit(x.selectColumns(selected_), y);
}

double
LinearPredictor::predict(const stats::Vector &full_sample) const
{
    if (!model_.trained())
        util::panicf("LinearPredictor: predict before fit");
    stats::Vector sample;
    sample.reserve(selected_.size());
    for (size_t index : selected_) {
        if (index >= full_sample.size())
            util::panicf("LinearPredictor: sample too short for "
                         "feature ",
                         index);
        sample.push_back(full_sample[index]);
    }
    return model_.predictOne(sample);
}

stats::Vector
LinearPredictor::predictAll(const stats::Matrix &x) const
{
    stats::Vector out(x.rows());
    for (size_t r = 0; r < x.rows(); ++r)
        out[r] = predict(x.row(r));
    return out;
}

CrossValidationResult
crossValidate(const Dataset &dataset, size_t folds,
              const EvaluationConfig &config)
{
    const auto splits = stats::kFoldSplit(dataset.x, dataset.y,
                                          folds, config.splitSeed);
    CrossValidationResult result;
    for (const auto &split : splits) {
        LinearPredictor predictor;
        predictor.fit(split.trainX, split.trainY,
                      config.keepFeatures, config.rfeDropPerRound);
        const stats::Vector predicted =
            predictor.predictAll(split.testX);
        const double r2 = stats::r2Score(split.testY, predicted);
        const double fold_rmse =
            stats::rmse(split.testY, predicted);
        result.foldR2.push_back(r2);
        result.foldRmse.push_back(fold_rmse);
        result.meanR2 += r2;
        result.meanRmse += fold_rmse;

        stats::MeanPredictor naive;
        naive.fit(split.trainY);
        result.meanNaiveRmse += stats::rmse(
            split.testY, naive.predict(split.testY.size()));
    }
    const auto n = static_cast<double>(splits.size());
    result.meanR2 /= n;
    result.meanRmse /= n;
    result.meanNaiveRmse /= n;
    return result;
}

EvaluationResult
evaluatePredictor(const Dataset &dataset,
                  const EvaluationConfig &config)
{
    if (dataset.x.rows() != dataset.y.size())
        util::panicf("evaluatePredictor: inconsistent dataset");

    const stats::Split split = stats::trainTestSplit(
        dataset.x, dataset.y, config.testFraction, config.splitSeed);

    LinearPredictor predictor;
    predictor.fit(split.trainX, split.trainY, config.keepFeatures,
                  config.rfeDropPerRound);

    EvaluationResult result;
    result.trainSamples = split.trainY.size();
    result.testSamples = split.testY.size();
    result.truth = split.testY;
    result.predicted = predictor.predictAll(split.testX);
    result.r2 = stats::r2Score(result.truth, result.predicted);
    result.rmse = stats::rmse(result.truth, result.predicted);

    stats::MeanPredictor naive;
    naive.fit(split.trainY);
    const stats::Vector naive_pred =
        naive.predict(result.truth.size());
    result.naiveRmse = stats::rmse(result.truth, naive_pred);
    result.naiveR2 = stats::r2Score(result.truth, naive_pred);

    result.selectedFeatures = predictor.selectedFeatures();
    for (size_t index : result.selectedFeatures)
        result.selectedFeatureNames.push_back(
            index < dataset.featureNames.size()
                ? dataset.featureNames[index]
                : "feature" + std::to_string(index));
    return result;
}

} // namespace vmargin
