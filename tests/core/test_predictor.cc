/**
 * @file
 * Tests for the profiling + prediction pipeline (paper section 4).
 * Uses a reduced workload population for speed; the full-population
 * numbers are produced by the fig7/fig8 bench harnesses.
 */

#include <gtest/gtest.h>

#include "core/predictor.hh"
#include "workloads/spec.hh"

namespace vmargin
{
namespace
{

class PredictorTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        platform_ = new sim::Platform(sim::XGene2Params{},
                                      sim::ChipCorner::TTT, 1);
        CharacterizationFramework framework(platform_);
        FrameworkConfig config;
        config.workloads = wl::headlineSuite();
        config.cores = {0, 4};
        config.campaigns = 6;
        config.maxEpochs = 10;
        config.startVoltage = 930;
        config.endVoltage = 840;
        report_ = new CharacterizationReport(
            framework.characterize(config));

        Profiler profiler(platform_);
        profiles_ = new std::vector<WorkloadCounters>(
            profiler.profileSuite(config.workloads, 0, 10));
    }

    static void
    TearDownTestSuite()
    {
        delete profiles_;
        delete report_;
        delete platform_;
        profiles_ = nullptr;
        report_ = nullptr;
        platform_ = nullptr;
    }

    static sim::Platform *platform_;
    static CharacterizationReport *report_;
    static std::vector<WorkloadCounters> *profiles_;
};

sim::Platform *PredictorTest::platform_ = nullptr;
CharacterizationReport *PredictorTest::report_ = nullptr;
std::vector<WorkloadCounters> *PredictorTest::profiles_ = nullptr;

TEST_F(PredictorTest, ProfilesCleanAndComplete)
{
    ASSERT_EQ(profiles_->size(), 10u);
    for (const auto &profile : *profiles_) {
        EXPECT_GT(profile.instructions, 0u);
        EXPECT_GT(profile.perKilo(sim::PmuEvent::CPU_CYCLES), 0.0);
        EXPECT_NEAR(profile.perKilo(sim::PmuEvent::INST_RETIRED),
                    1000.0, 1.0);
    }
}

TEST_F(PredictorTest, FeatureMatrixShape)
{
    const auto features = counterFeatureMatrix(*profiles_);
    EXPECT_EQ(features.rows(), 10u);
    EXPECT_EQ(features.cols(), sim::kNumPmuEvents);
    EXPECT_EQ(counterFeatureNames().size(), sim::kNumPmuEvents);
}

TEST_F(PredictorTest, VminDatasetAlignsWithReport)
{
    const auto ds = buildVminDataset(*profiles_, *report_, 0);
    ASSERT_EQ(ds.y.size(), 10u);
    for (size_t i = 0; i < ds.sampleIds.size(); ++i)
        EXPECT_DOUBLE_EQ(
            ds.y[i],
            report_->cell(ds.sampleIds[i], 0).analysis.vmin);
}

TEST_F(PredictorTest, SeverityDatasetFromUnsafeRegion)
{
    const auto ds = buildSeverityDataset(*profiles_, *report_, 0);
    EXPECT_GT(ds.y.size(), 30u);
    EXPECT_EQ(ds.x.cols(), sim::kNumPmuEvents + 1);
    EXPECT_EQ(ds.featureNames.back(), "VOLTAGE_MV");
    // Every effect in every run: the sum of all the weights.
    const SeverityWeights w;
    const double max_severity = w.sdc + w.ce + w.ue + w.ac + w.sc;
    for (double sev : ds.y) {
        EXPECT_GT(sev, 0.0);
        EXPECT_LE(sev, max_severity);
    }
    // The voltage column must carry real voltages.
    const auto voltages = ds.x.col(ds.x.cols() - 1);
    for (double v : voltages) {
        EXPECT_GE(v, 840.0);
        EXPECT_LE(v, 930.0);
    }
}

TEST_F(PredictorTest, SeverityPredictionBeatsNaive)
{
    const auto ds = buildSeverityDataset(*profiles_, *report_, 0);
    EvaluationConfig config;
    const auto eval = evaluatePredictor(ds, config);
    EXPECT_EQ(eval.selectedFeatures.size(), 5u);
    EXPECT_EQ(eval.selectedFeatureNames.size(), 5u);
    EXPECT_LT(eval.rmse, eval.naiveRmse * 0.7)
        << "the linear model must clearly beat the naive baseline";
    EXPECT_GT(eval.r2, 0.6);
}

TEST_F(PredictorTest, SeverityPredictionWorksOnRobustCore)
{
    const auto ds = buildSeverityDataset(*profiles_, *report_, 4);
    const auto eval = evaluatePredictor(ds, EvaluationConfig{});
    EXPECT_LT(eval.rmse, eval.naiveRmse * 0.8);
    EXPECT_GT(eval.r2, 0.5);
}

TEST_F(PredictorTest, LinearPredictorRoundTrip)
{
    const auto ds = buildSeverityDataset(*profiles_, *report_, 0);
    LinearPredictor predictor;
    predictor.fit(ds.x, ds.y, 5, 4);
    ASSERT_TRUE(predictor.trained());
    const auto all = predictor.predictAll(ds.x);
    EXPECT_EQ(all.size(), ds.y.size());
    EXPECT_DOUBLE_EQ(predictor.predict(ds.x.row(0)), all[0]);
}

TEST_F(PredictorTest, PredictedSeverityGrowsAsVoltageDrops)
{
    const auto ds = buildSeverityDataset(*profiles_, *report_, 0);
    LinearPredictor predictor;
    predictor.fit(ds.x, ds.y, 5, 4);
    // Take one sample and sweep only its voltage feature.
    stats::Vector hi = ds.x.row(0);
    stats::Vector lo = hi;
    hi[hi.size() - 1] = 910.0;
    lo[lo.size() - 1] = 870.0;
    EXPECT_GT(predictor.predict(lo), predictor.predict(hi));
}

TEST_F(PredictorTest, EvaluationReportsSplitSizes)
{
    const auto ds = buildSeverityDataset(*profiles_, *report_, 0);
    const auto eval = evaluatePredictor(ds, EvaluationConfig{});
    EXPECT_EQ(eval.trainSamples + eval.testSamples, ds.y.size());
    EXPECT_NEAR(static_cast<double>(eval.testSamples) /
                    static_cast<double>(ds.y.size()),
                0.2, 0.05);
    EXPECT_EQ(eval.truth.size(), eval.testSamples);
    EXPECT_EQ(eval.predicted.size(), eval.testSamples);
}

} // namespace
} // namespace vmargin
