/**
 * @file
 * Unit tests for region analysis (safe / unsafe / crash, Vmin).
 */

#include <gtest/gtest.h>

#include "core/regions.hh"

namespace vmargin
{
namespace
{

ClassifiedRun
runAt(MilliVolt v, std::initializer_list<Effect> effects,
      uint32_t campaign = 0)
{
    ClassifiedRun run;
    run.key.workloadId = "toy";
    run.key.core = 0;
    run.key.voltage = v;
    run.key.campaign = campaign;
    for (Effect e : effects)
        run.effects.add(e);
    return run;
}

TEST(Regions, ThreeRegionsExtracted)
{
    std::vector<ClassifiedRun> runs = {
        runAt(920, {}),          runAt(915, {}),
        runAt(910, {Effect::SDC}), runAt(905, {Effect::SDC,
                                               Effect::CE}),
        runAt(900, {Effect::SC}),
    };
    const RegionAnalysis a = analyzeRegions(runs, "toy", 0);
    EXPECT_EQ(a.regions.at(920), Region::Safe);
    EXPECT_EQ(a.regions.at(915), Region::Safe);
    EXPECT_EQ(a.regions.at(910), Region::Unsafe);
    EXPECT_EQ(a.regions.at(905), Region::Unsafe);
    EXPECT_EQ(a.regions.at(900), Region::Crash);
    EXPECT_EQ(a.vmin, 915);
    EXPECT_EQ(a.highestCrashVoltage, 900);
    EXPECT_EQ(a.highestAbnormalVoltage, 910);
    EXPECT_TRUE(a.sawCrash());
    EXPECT_EQ(a.unsafeWidth(), 5);
    EXPECT_EQ(a.guardband(980), 65);
}

TEST(Regions, OneAbnormalRunTaintsTheLevel)
{
    std::vector<ClassifiedRun> runs = {
        runAt(915, {}),
        runAt(915, {Effect::CE}), // one of N runs abnormal
        runAt(920, {}),
    };
    const RegionAnalysis a = analyzeRegions(runs, "toy", 0);
    EXPECT_EQ(a.regions.at(915), Region::Unsafe);
    EXPECT_EQ(a.vmin, 920);
}

TEST(Regions, CrashDominatesUnsafe)
{
    std::vector<ClassifiedRun> runs = {
        runAt(910, {Effect::SDC}),
        runAt(910, {Effect::SC}),
        runAt(915, {}),
    };
    const RegionAnalysis a = analyzeRegions(runs, "toy", 0);
    EXPECT_EQ(a.regions.at(910), Region::Crash);
}

TEST(Regions, VminRequiresContiguousSafety)
{
    // A safe level *below* an unsafe one must not count as Vmin
    // (non-monotone observations happen with run-to-run jitter).
    std::vector<ClassifiedRun> runs = {
        runAt(920, {}),
        runAt(915, {Effect::SDC}),
        runAt(910, {}), // isolated safe level below the onset
        runAt(905, {Effect::SC}),
    };
    const RegionAnalysis a = analyzeRegions(runs, "toy", 0);
    EXPECT_EQ(a.vmin, 920);
}

TEST(Regions, MergesCampaignRepetitions)
{
    // Paper: the reported Vmin is the highest across 10 campaigns —
    // equivalent to merging all campaigns' runs per voltage.
    std::vector<ClassifiedRun> runs = {
        runAt(915, {}, 0),
        runAt(915, {Effect::SDC}, 1), // campaign 1 saw an SDC here
        runAt(920, {}, 0),
        runAt(920, {}, 1),
    };
    const RegionAnalysis a = analyzeRegions(runs, "toy", 0);
    EXPECT_EQ(a.vmin, 920);
    // Both campaigns' runs at 915 count: campaign 1's SDC makes the
    // level unsafe, and N = 2 halves its weight.
    EXPECT_EQ(a.regions.at(915), Region::Unsafe);
    EXPECT_DOUBLE_EQ(a.severityByVoltage.at(915), 2.0);
}

TEST(Regions, SeverityPerVoltage)
{
    std::vector<ClassifiedRun> runs = {
        runAt(910, {Effect::SDC}),
        runAt(910, {}),
        runAt(905, {Effect::SC}),
        runAt(905, {Effect::SC}),
    };
    const RegionAnalysis a = analyzeRegions(runs, "toy", 0);
    EXPECT_DOUBLE_EQ(a.severityByVoltage.at(910), 2.0); // 4/2
    EXPECT_DOUBLE_EQ(a.severityByVoltage.at(905), 16.0);
}

TEST(Regions, NoCrashObserved)
{
    std::vector<ClassifiedRun> runs = {
        runAt(920, {}),
        runAt(915, {Effect::CE}),
    };
    const RegionAnalysis a = analyzeRegions(runs, "toy", 0);
    EXPECT_FALSE(a.sawCrash());
    EXPECT_EQ(a.highestCrashVoltage, 0);
}

TEST(Regions, AllSafeHasNoUnsafeWidth)
{
    std::vector<ClassifiedRun> runs = {runAt(920, {}),
                                       runAt(915, {})};
    const RegionAnalysis a = analyzeRegions(runs, "toy", 0);
    EXPECT_EQ(a.unsafeWidth(), 0);
    EXPECT_EQ(a.vmin, 915);
}

TEST(Regions, FiltersByWorkloadAndCore)
{
    std::vector<ClassifiedRun> runs = {runAt(920, {})};
    ClassifiedRun other = runAt(915, {Effect::SC});
    other.key.core = 3;
    runs.push_back(other);
    const RegionAnalysis a = analyzeRegions(runs, "toy", 0);
    EXPECT_EQ(a.regions.count(915), 0u);
    EXPECT_EQ(a.severityByVoltage.count(915), 0u);
}

TEST(Regions, RegionNames)
{
    EXPECT_EQ(regionName(Region::Safe), "Safe");
    EXPECT_EQ(regionName(Region::Unsafe), "Unsafe");
    EXPECT_EQ(regionName(Region::Crash), "Crash");
}

TEST(Regions, DeathOnEmptyCell)
{
    EXPECT_DEATH(analyzeRegions({}, "toy", 0), "no runs");
}

} // namespace
} // namespace vmargin
