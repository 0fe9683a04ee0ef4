/**
 * @file
 * Integration-ish tests of the full characterization framework on a
 * reduced configuration (two workloads, two cores).
 */

#include <gtest/gtest.h>

#include "core/framework.hh"
#include "util/config.hh"
#include "util/csv.hh"
#include "workloads/spec.hh"

namespace vmargin
{
namespace
{

class FrameworkTest : public ::testing::Test
{
  protected:
    FrameworkTest()
        : platform_(sim::XGene2Params{}, sim::ChipCorner::TTT, 1),
          framework_(&platform_)
    {
        config_.workloads = {wl::findWorkload("bwaves/ref"),
                             wl::findWorkload("mcf/ref")};
        config_.cores = {0, 4};
        config_.campaigns = 4;
        config_.maxEpochs = 10;
        config_.startVoltage = 930;
        config_.endVoltage = 845;
    }

    sim::Platform platform_;
    CharacterizationFramework framework_;
    FrameworkConfig config_;
};

TEST_F(FrameworkTest, ProducesACellPerWorkloadCorePair)
{
    const auto report = framework_.characterize(config_);
    EXPECT_EQ(report.cells.size(), 4u);
    EXPECT_EQ(report.chipName, "TTT#1");
    EXPECT_EQ(report.corner, sim::ChipCorner::TTT);
    EXPECT_GT(report.runCount(), 0u);
    // All four cells reachable.
    (void)report.cell("bwaves/ref", 0);
    (void)report.cell("mcf/ref", 4);
}

TEST_F(FrameworkTest, RobustCoreUndervoltsDeeper)
{
    const auto report = framework_.characterize(config_);
    EXPECT_LT(report.cell("bwaves/ref", 4).analysis.vmin,
              report.cell("bwaves/ref", 0).analysis.vmin);
    EXPECT_LT(report.cell("mcf/ref", 4).analysis.vmin,
              report.cell("mcf/ref", 0).analysis.vmin);
}

TEST_F(FrameworkTest, WorkloadOrderingConsistent)
{
    const auto report = framework_.characterize(config_);
    // mcf stresses timing paths least: lower Vmin on both cores.
    EXPECT_LT(report.cell("mcf/ref", 0).analysis.vmin,
              report.cell("bwaves/ref", 0).analysis.vmin);
    EXPECT_LT(report.cell("mcf/ref", 4).analysis.vmin,
              report.cell("bwaves/ref", 4).analysis.vmin);
}

TEST_F(FrameworkTest, BestCoreAndAverageHelpers)
{
    const auto report = framework_.characterize(config_);
    EXPECT_EQ(report.bestCoreVmin("bwaves/ref"),
              report.cell("bwaves/ref", 4).analysis.vmin);
    const double avg = report.averageVmin("bwaves/ref");
    EXPECT_GE(avg, report.cell("bwaves/ref", 4).analysis.vmin);
    EXPECT_LE(avg, report.cell("bwaves/ref", 0).analysis.vmin);
}

TEST_F(FrameworkTest, CsvOutputsParse)
{
    const auto report = framework_.characterize(config_);
    const auto doc = util::parseCsv(report.toCsv());
    EXPECT_EQ(doc.rows.size(), report.runCount());
    EXPECT_GE(doc.columnIndex("effects"), 0);
    EXPECT_GE(doc.columnIndex("voltage_mv"), 0);
    EXPECT_EQ(report.cells.size(), 4u);
}

TEST_F(FrameworkTest, SeverityRampsMonotonicallyOnAverage)
{
    const auto report = framework_.characterize(config_);
    const auto &analysis = report.cell("bwaves/ref", 0).analysis;
    // Severity at the crash floor must exceed severity just below
    // Vmin.
    const double near_vmin =
        analysis.severityByVoltage.at(analysis.vmin - 5);
    const double at_bottom =
        analysis.severityByVoltage.begin()->second;
    EXPECT_GT(at_bottom, near_vmin);
    EXPECT_GE(at_bottom, 14.0) << "crash region approaches 16";
}

TEST_F(FrameworkTest, CharacterizeCellMatchesFullRun)
{
    const auto report = framework_.characterize(config_);
    const auto cell = framework_.characterizeCell(
        wl::findWorkload("bwaves/ref"), 0, config_);
    EXPECT_EQ(cell.analysis.vmin,
              report.cell("bwaves/ref", 0).analysis.vmin);
    EXPECT_EQ(cell.analysis.highestCrashVoltage,
              report.cell("bwaves/ref", 0)
                  .analysis.highestCrashVoltage);
}

TEST_F(FrameworkTest, ValidationCatchesEmptyConfig)
{
    FrameworkConfig bad = config_;
    bad.workloads.clear();
    EXPECT_EXIT(framework_.characterize(bad),
                ::testing::ExitedWithCode(1), "empty workload");
}

TEST_F(FrameworkTest, ValidationRefusesARepeatedWorkload)
{
    // A repeat would plan the cell twice and count its runs twice.
    FrameworkConfig bad = config_;
    bad.workloads.push_back(wl::findWorkload("bwaves/ref"));
    EXPECT_EXIT(bad.validate(), ::testing::ExitedWithCode(1),
                "workload bwaves/ref is listed twice");
}

TEST_F(FrameworkTest, ValidationRefusesARepeatedCore)
{
    FrameworkConfig bad = config_;
    bad.cores = {0, 4, 2, 4};
    EXPECT_EXIT(bad.validate(), ::testing::ExitedWithCode(1),
                "core 4 is listed twice");
}

TEST_F(FrameworkTest, ConfigRefusesOutOfRangeIntegers)
{
    // Each value parses as a long but does not fit its field: a
    // silent cast would run 1 campaign, measure core 0, or trim at
    // 4294967295 epochs.
    const auto load = [](const std::string &text) {
        FrameworkConfig::fromConfig(util::ConfigFile::fromText(text));
    };
    EXPECT_EXIT(load("campaigns = 4294967297\n"),
                ::testing::ExitedWithCode(1),
                "config key 'campaigns': 4294967297 is out of range");
    EXPECT_EXIT(load("cores = 0, 4294967296\n"),
                ::testing::ExitedWithCode(1),
                "config key 'cores': 4294967296 is out of range");
    EXPECT_EXIT(load("max_epochs = -1\n"),
                ::testing::ExitedWithCode(1),
                "config key 'max_epochs': -1 is out of range");
    EXPECT_EXIT(load("start_mv = -2147483649\n"),
                ::testing::ExitedWithCode(1),
                "config key 'start_mv': -2147483649 is out of range");
}

TEST_F(FrameworkTest, HalfSpeedShowsUniform760Vmin)
{
    // The paper's 1.2 GHz result: Vmin 760 mV for every core and
    // workload, crash directly below.
    FrameworkConfig half = config_;
    half.frequency = 1200;
    half.startVoltage = 790;
    half.endVoltage = 740;
    half.campaigns = 10;
    const auto report = framework_.characterize(half);
    for (const auto &cell : report.cells) {
        EXPECT_EQ(cell.analysis.vmin, 760) << cell.workloadId
                                           << " core " << cell.core;
        EXPECT_EQ(cell.analysis.unsafeWidth(), 0)
            << "no unsafe region at the divided clock";
        EXPECT_TRUE(cell.analysis.sawCrash());
    }
}

} // namespace
} // namespace vmargin
