/**
 * @file
 * Golden compatibility of the RunLedger refactor: the LedgerView
 * derivation pipeline must reproduce, byte for byte, what the
 * pre-refactor per-cell loops produced — across worker counts, with
 * fault injection on, through journal resume and cache-served
 * sweeps, and through the serialize/deserialize round trip.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/framework.hh"
#include "core/ledger.hh"
#include "core/resultstore.hh"
#include "core/severity.hh"
#include "obs/metrics.hh"
#include "sim/platform.hh"
#include "workloads/spec.hh"

namespace vmargin
{
namespace
{

/** Current value of an exact executor counter; tests read deltas. */
uint64_t
counterValue(const char *name)
{
    return obs::Registry::global().counter(name).value();
}

constexpr const char *kFromJournal = "executor.cells_from_journal";
constexpr const char *kCacheHits = "executor.cache_hits";

/**
 * The pre-refactor analyzeRegions(), kept verbatim as the golden
 * reference: a per-cell walk over the full run list. LedgerView must
 * derive exactly this from a single streamed pass.
 */
RegionAnalysis
legacyAnalyzeRegions(const std::vector<ClassifiedRun> &runs,
                     const std::string &workload_id, CoreId core,
                     const SeverityWeights &weights)
{
    RegionAnalysis analysis;
    for (const auto &run : runs) {
        if (run.key.workloadId != workload_id || run.key.core != core)
            continue;
        analysis.runsByVoltage[run.key.voltage].push_back(
            run.effects);
    }
    EXPECT_FALSE(analysis.runsByVoltage.empty());

    for (const auto &[voltage, effect_sets] :
         analysis.runsByVoltage) {
        bool any_abnormal = false;
        bool any_crash = false;
        for (const auto &set : effect_sets) {
            any_abnormal = any_abnormal || !set.normal();
            any_crash = any_crash || set.has(Effect::SC);
        }
        Region region = Region::Safe;
        if (any_crash)
            region = Region::Crash;
        else if (any_abnormal)
            region = Region::Unsafe;
        analysis.regions[voltage] = region;
        analysis.severityByVoltage[voltage] =
            severity(effect_sets, weights);

        if (any_crash && voltage > analysis.highestCrashVoltage)
            analysis.highestCrashVoltage = voltage;
        if (any_abnormal && voltage > analysis.highestAbnormalVoltage)
            analysis.highestAbnormalVoltage = voltage;
    }

    MilliVolt vmin = 0;
    for (auto it = analysis.regions.rbegin();
         it != analysis.regions.rend(); ++it) {
        if (it->second != Region::Safe)
            break;
        vmin = it->first;
    }
    if (vmin == 0)
        vmin = analysis.regions.rbegin()->first;
    analysis.vmin = vmin;
    return analysis;
}

sim::FaultPlanConfig
hostilePlan()
{
    sim::FaultPlanConfig plan;
    plan.i2cWriteFailure = 0.10;
    plan.watchdogMiss = 0.05;
    plan.staleRead = 0.05;
    plan.seed = 41;
    return plan;
}

FrameworkConfig
goldenConfig()
{
    FrameworkConfig config;
    config.workloads = {wl::findWorkload("bwaves/ref"),
                        wl::findWorkload("leslie3d/ref"),
                        wl::findWorkload("namd/ref")};
    config.cores = {0, 3, 6};
    config.campaigns = 2;
    config.maxEpochs = 8;
    config.startVoltage = 930;
    config.endVoltage = 865;
    return config;
}

CharacterizationReport
goldenSweep(int workers, const std::string &journal = "",
            const std::string &cache = "")
{
    sim::Platform platform(sim::XGene2Params{}, sim::ChipCorner::TTT,
                           21);
    platform.installFaultPlan(hostilePlan());
    CharacterizationFramework framework(&platform);
    FrameworkConfig config = goldenConfig();
    config.workers = workers;
    config.journalPath = journal;
    config.cachePath = cache;
    return framework.characterize(config);
}

void
expectAnalysesEqual(const RegionAnalysis &ours,
                    const RegionAnalysis &golden,
                    const std::string &label)
{
    EXPECT_EQ(ours.regions, golden.regions) << label;
    EXPECT_EQ(ours.severityByVoltage, golden.severityByVoltage)
        << label;
    EXPECT_EQ(ours.runsByVoltage, golden.runsByVoltage) << label;
    EXPECT_EQ(ours.vmin, golden.vmin) << label;
    EXPECT_EQ(ours.highestCrashVoltage, golden.highestCrashVoltage)
        << label;
    EXPECT_EQ(ours.highestAbnormalVoltage,
              golden.highestAbnormalVoltage)
        << label;
}

TEST(LedgerGolden, ViewMatchesLegacyDerivationPerCell)
{
    const auto report = goldenSweep(4);
    ASSERT_EQ(report.cells.size(), 9u);
    const SeverityWeights weights = goldenConfig().weights;
    for (const auto &cell : report.cells) {
        const RegionAnalysis golden = legacyAnalyzeRegions(
            report.allRuns, cell.workloadId, cell.core, weights);
        expectAnalysesEqual(cell.analysis, golden,
                            cell.workloadId + "/core" +
                                std::to_string(cell.core));
    }
}

TEST(LedgerGolden, WorkerCountsAndReplaysAreByteIdentical)
{
    const std::string journal = "/tmp/vmargin_golden_journal";
    const std::string cache = "/tmp/vmargin_golden_cache";
    std::remove(journal.c_str());
    std::remove(cache.c_str());

    const auto one = goldenSweep(1);
    const std::string bytes = serializeReport(one);
    EXPECT_EQ(serializeReport(goldenSweep(2)), bytes);
    EXPECT_EQ(serializeReport(goldenSweep(8, journal, cache)), bytes);

    // Journal resume: every cell replays, report unchanged.
    const uint64_t replays_before = counterValue(kFromJournal);
    const auto resumed = goldenSweep(1, journal);
    EXPECT_EQ(counterValue(kFromJournal) - replays_before, 9u);
    EXPECT_EQ(serializeReport(resumed), bytes);

    // Cache-served rerun: every cell a hit, report unchanged.
    const uint64_t hits_before = counterValue(kCacheHits);
    const auto cached = goldenSweep(2, "", cache);
    EXPECT_EQ(counterValue(kCacheHits) - hits_before, 9u);
    EXPECT_EQ(serializeReport(cached), bytes);

    std::remove(journal.c_str());
    std::remove(cache.c_str());
}

TEST(LedgerGolden, SerializeRoundTripIsByteStable)
{
    const auto report = goldenSweep(4);
    const std::string bytes = serializeReport(report);
    // The rebuilt report re-derives every analysis through the
    // LedgerView; serializing it again must reproduce the document.
    const auto rebuilt =
        deserializeReport(bytes, goldenConfig().weights);
    EXPECT_EQ(serializeReport(rebuilt), bytes);
    EXPECT_EQ(rebuilt.toCsv(), report.toCsv());
    EXPECT_EQ(rebuilt.cells, report.cells);
    ASSERT_EQ(rebuilt.cells.size(), report.cells.size());
    for (size_t i = 0; i < report.cells.size(); ++i) {
        EXPECT_EQ(rebuilt.cells[i].workloadId,
                  report.cells[i].workloadId)
            << "cell order must survive the round trip";
        expectAnalysesEqual(rebuilt.cells[i].analysis,
                            report.cells[i].analysis,
                            report.cells[i].workloadId);
    }
}

} // namespace
} // namespace vmargin
