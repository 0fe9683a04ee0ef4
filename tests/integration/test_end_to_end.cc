/**
 * @file
 * End-to-end pipeline tests: characterize -> profile -> train ->
 * predict -> schedule, on a reduced population, mirroring the
 * paper's full flow (Figure 6 plus section 5).
 */

#include <gtest/gtest.h>

#include "core/framework.hh"
#include "core/mitigation.hh"
#include "core/predictor.hh"
#include "core/tradeoff.hh"
#include "sched/allocator.hh"
#include "sched/governor.hh"
#include "workloads/spec.hh"

namespace vmargin
{
namespace
{

class EndToEndTest : public ::testing::Test
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
        config.cores = {0, 1, 2, 3, 4, 5, 6, 7};
        config.campaigns = 4;
        config.maxEpochs = 8;
        config.startVoltage = 930;
        config.endVoltage = 830;
        report_ = new CharacterizationReport(
            framework.characterize(config));
    }

    static void
    TearDownTestSuite()
    {
        delete report_;
        delete platform_;
        report_ = nullptr;
        platform_ = nullptr;
    }

    static sim::Platform *platform_;
    static CharacterizationReport *report_;
};

sim::Platform *EndToEndTest::platform_ = nullptr;
CharacterizationReport *EndToEndTest::report_ = nullptr;

/** Index of (@p id, @p core) in @p report's cells, and so of its
 *  run block. */
size_t
cellIndex(const CharacterizationReport &report, const std::string &id,
          CoreId core)
{
    for (size_t i = 0; i < report.cells.size(); ++i)
        if (report.cells[i].workloadId == id && report.cells[i].core == core)
            return i;
    ADD_FAILURE() << id << " core " << core << " not characterized";
    return 0;
}

TEST_F(EndToEndTest, EveryCellCharacterized)
{
    EXPECT_EQ(report_->cells.size(), 80u);
    for (const auto &cell : report_->cells) {
        EXPECT_GE(cell.analysis.vmin, 850) << cell.workloadId;
        EXPECT_LE(cell.analysis.vmin, 925) << cell.workloadId;
        EXPECT_TRUE(cell.analysis.sawCrash())
            << cell.workloadId << " core " << cell.core;
    }
}

TEST_F(EndToEndTest, GuardbandsMatchThePaperBand)
{
    // Most robust core's Vmin across the 10 benchmarks: the paper's
    // Figure 3 band for TTT is 860-885 mV.
    MilliVolt lo = 10000, hi = 0;
    for (const auto &w : wl::headlineSuite()) {
        const MilliVolt vmin = report_->bestCoreVmin(w.id());
        lo = std::min(lo, vmin);
        hi = std::max(hi, vmin);
    }
    EXPECT_GE(lo, 850);
    EXPECT_LE(hi, 890);
    EXPECT_GE(hi - lo, 10) << "workload-to-workload variation";
}

TEST_F(EndToEndTest, Pmd2MostRobustInMeasurement)
{
    // Figure 4's PMD pattern must survive the full measurement
    // pipeline, not just the silicon model.
    auto pmd_avg = [&](PmdId p) {
        double sum = 0;
        int n = 0;
        for (const auto &w : wl::headlineSuite()) {
            sum += report_->cell(w.id(), 2 * p).analysis.vmin +
                   report_->cell(w.id(), 2 * p + 1).analysis.vmin;
            n += 2;
        }
        return sum / n;
    };
    EXPECT_LT(pmd_avg(2), pmd_avg(0));
    EXPECT_LT(pmd_avg(2), pmd_avg(1));
    EXPECT_LT(pmd_avg(2), pmd_avg(3));
}

TEST_F(EndToEndTest, SdcBeforeCorrectedErrorsInObservations)
{
    // The section 3.4 X-Gene 2 signature at the observation level:
    // no benchmark shows a CE-only level above the first SDC level.
    for (const auto &w : wl::headlineSuite()) {
        MilliVolt first_sdc = 0, first_ce_alone = 0;
        const size_t cell = cellIndex(*report_, w.id(), 0);
        for (const auto &run : report_->runBlocks.at(cell)) {
            const EffectSet &set = run.effects;
            const MilliVolt v = run.key.voltage;
            if (set.has(Effect::SDC))
                first_sdc = std::max(first_sdc, v);
            if (set.has(Effect::CE) && !set.has(Effect::SDC) &&
                !set.has(Effect::AC) && !set.has(Effect::SC))
                first_ce_alone = std::max(first_ce_alone, v);
        }
        if (first_ce_alone > 0 && first_sdc > 0) {
            EXPECT_LE(first_ce_alone, first_sdc + 5)
                << w.id() << ": CE-alone appeared well above SDC "
                              "(Itanium-style, wrong platform)";
        }
    }
}

TEST_F(EndToEndTest, TradeoffLadderDeliversPaperScaleSavings)
{
    // Place 8 of the benchmarks on the 8 cores and walk Figure 9.
    std::vector<Placement> placements;
    const auto suite = wl::headlineSuite();
    for (CoreId c = 0; c < 8; ++c)
        placements.push_back(
            Placement{suite[static_cast<size_t>(c)].id(), c});

    const TradeoffExplorer explorer(*report_, 760);
    const auto ladder = explorer.ladder(placements);
    ASSERT_EQ(ladder.size(), 5u);
    // Full-speed point saves ~10-15% (paper: 12.8%).
    EXPECT_GT(ladder[0].savingsPercent(), 8.0);
    EXPECT_LT(ladder[0].savingsPercent(), 20.0);
    // Two PMDs slowed: paper reports 38.8%.
    EXPECT_GT(ladder[2].savingsPercent(), 30.0);
    EXPECT_LT(ladder[2].savingsPercent(), 45.0);
    // Everything slowed: ~70% power at half performance.
    EXPECT_GT(ladder[4].savingsPercent(), 60.0);
    EXPECT_DOUBLE_EQ(ladder[4].performanceRel, 0.5);
    EXPECT_EQ(ladder[4].voltage, 760);
}

TEST_F(EndToEndTest, AllocatorLowersTheDomainVoltage)
{
    const sched::TaskAllocator allocator(*report_);
    std::vector<std::string> tasks;
    for (const auto &w : wl::headlineSuite())
        if (tasks.size() < 8)
            tasks.push_back(w.id());
    const auto smart = allocator.allocate(tasks);
    const auto naive = allocator.allocateNaive(tasks);
    EXPECT_LE(smart.requiredVoltage, naive.requiredVoltage);
}

TEST_F(EndToEndTest, GovernorDrivenBySeverityPredictors)
{
    Profiler profiler(platform_);
    const auto profiles =
        profiler.profileSuite(wl::headlineSuite(), 0, 8);

    const auto ds0 = buildSeverityDataset(profiles, *report_, 0);
    const auto ds4 = buildSeverityDataset(profiles, *report_, 4);
    LinearPredictor p0, p4;
    p0.fit(ds0.x, ds0.y, 5, 8);
    p4.fit(ds4.x, ds4.y, 5, 8);

    sched::GovernorConfig config;
    config.guardSteps = 1;
    sched::VoltageGovernor governor(config);
    governor.setPredictor(0, std::move(p0));
    governor.setPredictor(4, std::move(p4));

    // Observe bwaves on both cores.
    sched::CoreObservation on0, on4;
    on0.core = 0;
    on4.core = 4;
    for (size_t e = 0; e < sim::kNumPmuEvents; ++e) {
        on0.counterFeatures.push_back(profiles[0].perKilo(
            static_cast<sim::PmuEvent>(e)));
        on4.counterFeatures = on0.counterFeatures;
    }

    const MilliVolt both = governor.decide({on0, on4});
    const MilliVolt robust_only = governor.decide({on4});
    EXPECT_LT(both, 980) << "the governor must harvest some margin";
    EXPECT_LE(robust_only, both)
        << "dropping the sensitive core can only help";
    // The decision must stay at or above the measured Vmin minus a
    // step (the governor is calibrated to be safe).
    EXPECT_GE(both,
              report_->cell("bwaves/ref", 0).analysis.vmin - 5);
}

TEST_F(EndToEndTest, MitigationAdviceFollowsSeverity)
{
    const auto &analysis = report_->cell("bwaves/ref", 0).analysis;
    const auto advice_at = [&](MilliVolt v) {
        return adviseMitigation(analysis.severityByVoltage.at(v));
    };
    // At Vmin everything is safe.
    EXPECT_EQ(advice_at(analysis.vmin).action,
              MitigationAction::None);
    // At the crash floor the range is unusable.
    const MilliVolt bottom =
        analysis.severityByVoltage.begin()->first;
    EXPECT_EQ(advice_at(bottom).action, MitigationAction::Unusable);
}

} // namespace
} // namespace vmargin
