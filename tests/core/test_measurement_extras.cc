/**
 * @file
 * Tests for the measurement-methodology extras: campaign
 * repeatability analysis, EDAC error-location aggregation, the
 * config-file framework setup and k-fold cross-validation of the
 * predictor.
 */

#include <gtest/gtest.h>

#include "core/errorsites.hh"
#include "core/predictor.hh"
#include "core/repeatability.hh"
#include "util/config.hh"
#include "util/rng.hh"
#include "workloads/spec.hh"

namespace vmargin
{
namespace
{

ClassifiedRun
runOf(MilliVolt v, uint32_t campaign, bool abnormal)
{
    ClassifiedRun run;
    run.key.workloadId = "toy";
    run.key.core = 0;
    run.key.voltage = v;
    run.key.campaign = campaign;
    if (abnormal)
        run.effects.add(Effect::SDC);
    return run;
}

TEST(Repeatability, PerCampaignVminAndMerge)
{
    // Campaign 0 is lucky (nothing at 905), campaign 1 sees an SDC
    // there: single-campaign Vmins are 905 and 910, the merged
    // (paper protocol) Vmin is 910.
    std::vector<ClassifiedRun> runs = {
        runOf(910, 0, false), runOf(905, 0, false),
        runOf(910, 1, false), runOf(905, 1, true),
    };
    const auto dispersion = campaignDispersion(runs, "toy", 0);
    ASSERT_EQ(dispersion.perCampaignVmin.size(), 2u);
    EXPECT_EQ(dispersion.minVmin(), 905);
    EXPECT_EQ(dispersion.maxVmin(), 910);
    EXPECT_EQ(dispersion.mergedVmin, 910);
    EXPECT_EQ(dispersion.span(), 5);
    EXPECT_NEAR(dispersion.protocolMarginMv(), 2.5, 1e-12);
}

TEST(Repeatability, MergedNeverBelowAnyCampaign)
{
    util::Rng rng(3);
    std::vector<ClassifiedRun> runs;
    for (uint32_t campaign = 0; campaign < 6; ++campaign)
        for (MilliVolt v = 930; v >= 880; v -= 5)
            runs.push_back(runOf(
                v, campaign,
                v < 900 && rng.bernoulli(0.5)));
    // Guarantee at least one abnormal observation so Vmin is
    // defined below the top.
    runs.push_back(runOf(895, 0, true));
    const auto dispersion = campaignDispersion(runs, "toy", 0);
    for (MilliVolt v : dispersion.perCampaignVmin)
        EXPECT_GE(dispersion.mergedVmin, v);
}

TEST(Repeatability, DeathOnMissingCell)
{
    EXPECT_DEATH(campaignDispersion({}, "toy", 0), "no runs");
}

TEST(ErrorSites, AggregatesAcrossRuns)
{
    using sim::ErrorSite;
    ClassifiedRun a, b;
    a.correctedBySite[ErrorSite::L2Cache] = 5;
    a.correctedBySite[ErrorSite::L3Cache] = 1;
    a.uncorrectedBySite[ErrorSite::L2Cache] = 2;
    b.correctedBySite[ErrorSite::L2Cache] = 3;
    const auto breakdown = summarizeErrorSites({a, b});
    EXPECT_EQ(breakdown.corrected[ErrorSite::L2Cache], 8u);
    EXPECT_EQ(breakdown.corrected[ErrorSite::L3Cache], 1u);
    EXPECT_EQ(breakdown.corrected[ErrorSite::Dram], 0u);
    EXPECT_EQ(breakdown.corrected.total(), 9u);
    EXPECT_EQ(breakdown.uncorrected[ErrorSite::L2Cache], 2u);
    EXPECT_EQ(breakdown.uncorrected.total(), 2u);
}

TEST(ErrorSites, EmptyInput)
{
    const auto breakdown = summarizeErrorSites({});
    EXPECT_EQ(breakdown.corrected, sim::SiteCounts{});
    EXPECT_EQ(breakdown.uncorrected, sim::SiteCounts{});
}

TEST(FrameworkConfigFile, DefaultsAndOverrides)
{
    const auto file = util::ConfigFile::fromText(
        "workloads = bwaves, mcf/train\n"
        "cores = 0, 4\n"
        "frequency_mhz = 1200\n"
        "start_mv = 790\n"
        "end_mv = 740\n"
        "campaigns = 3\n"
        "max_epochs = 12\n");
    const auto config = FrameworkConfig::fromConfig(file);
    ASSERT_EQ(config.workloads.size(), 2u);
    EXPECT_EQ(config.workloads[0].name, "bwaves");
    EXPECT_EQ(config.workloads[1].dataset, "train");
    EXPECT_EQ(config.cores, (std::vector<CoreId>{0, 4}));
    EXPECT_EQ(config.frequency, 1200);
    EXPECT_EQ(config.startVoltage, 790);
    EXPECT_EQ(config.endVoltage, 740);
    EXPECT_EQ(config.campaigns, 3);
    EXPECT_EQ(config.maxEpochs, 12u);
}

TEST(FrameworkConfigFile, EmptyFileGivesDefaults)
{
    const auto config =
        FrameworkConfig::fromConfig(util::ConfigFile::fromText(""));
    EXPECT_EQ(config.workloads.size(), 10u);
    EXPECT_EQ(config.cores.size(), 8u);
    EXPECT_EQ(config.frequency, 2400);
}

TEST(FrameworkConfigFile, FatalOnBadCore)
{
    const auto file =
        util::ConfigFile::fromText("cores = zero\n");
    EXPECT_EXIT(FrameworkConfig::fromConfig(file),
                ::testing::ExitedWithCode(1),
                "config key 'cores': 'zero' is not an integer");
}

TEST(FrameworkConfigFile, FatalOnUnknownWorkload)
{
    const auto file =
        util::ConfigFile::fromText("workloads = doom\n");
    EXPECT_EXIT(FrameworkConfig::fromConfig(file),
                ::testing::ExitedWithCode(1), "unknown workload");
}

TEST(CrossValidate, RecoversLinearSignal)
{
    // Synthetic dataset: y depends on 2 of 10 features.
    util::Rng rng(5);
    Dataset dataset;
    std::vector<stats::Vector> rows;
    for (int i = 0; i < 80; ++i) {
        stats::Vector row;
        for (int j = 0; j < 10; ++j)
            row.push_back(rng.uniform(-1, 1));
        dataset.y.push_back(3.0 * row[2] - 2.0 * row[7] +
                            rng.gaussian(0, 0.05));
        rows.push_back(std::move(row));
    }
    dataset.x = stats::Matrix::fromRows(rows);
    for (int j = 0; j < 10; ++j)
        dataset.featureNames.push_back(
            std::string("f").append(std::to_string(j)));

    EvaluationConfig config;
    config.keepFeatures = 2;
    const auto cv = crossValidate(dataset, 5, config);
    EXPECT_EQ(cv.foldR2.size(), 5u);
    EXPECT_GT(cv.meanR2, 0.95);
    EXPECT_LT(cv.meanRmse, cv.meanNaiveRmse * 0.2);
}

TEST(CrossValidate, FoldsAggregateConsistently)
{
    util::Rng rng(6);
    Dataset dataset;
    std::vector<stats::Vector> rows;
    for (int i = 0; i < 40; ++i) {
        rows.push_back({rng.uniform(-1, 1)});
        dataset.y.push_back(rows.back()[0]);
    }
    dataset.x = stats::Matrix::fromRows(rows);
    dataset.featureNames = {"f0"};
    EvaluationConfig config;
    config.keepFeatures = 1;
    const auto cv = crossValidate(dataset, 4, config);
    double sum_r2 = 0.0;
    for (double r2 : cv.foldR2)
        sum_r2 += r2;
    EXPECT_NEAR(cv.meanR2, sum_r2 / 4.0, 1e-12);
}

} // namespace
} // namespace vmargin
