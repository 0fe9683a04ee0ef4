/**
 * @file
 * Fleet determinism suite: the three-chip fleet report must be
 * byte-identical for any worker count AND any chip enumeration
 * order, a single-chip fleet must reproduce the single-chip
 * CharacterizationFramework's report byte for byte (also across a
 * budget-chopped resume through either entry point), and a
 * budget-chopped fleet sweep resumed through the shared journal —
 * under a hostile management-plane fault plan — must reassemble the
 * single-shot report exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/fleet.hh"
#include "core/framework.hh"
#include "core/resultstore.hh"
#include "obs/metrics.hh"
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
constexpr const char *kFresh = "executor.cells_fresh";

sim::FaultPlanConfig
hostilePlan()
{
    sim::FaultPlanConfig plan;
    plan.i2cWriteFailure = 0.10;
    plan.watchdogMiss = 0.05;
    plan.managementHang = 0.002;
    plan.staleRead = 0.05;
    plan.seed = 99;
    return plan;
}

FrameworkConfig
sweepConfig()
{
    FrameworkConfig config;
    config.workloads = {wl::findWorkload("bwaves/ref"),
                        wl::findWorkload("leslie3d/ref")};
    config.cores = {0, 2, 4, 6};
    config.campaigns = 2;
    config.maxEpochs = 8;
    config.startVoltage = 930;
    config.endVoltage = 870;
    return config;
}

sim::Platform
templatePlatform()
{
    sim::Platform platform(sim::XGene2Params{}, sim::ChipCorner::TTT,
                           1);
    platform.installFaultPlan(hostilePlan());
    return platform;
}

FleetReport
fleetSweep(const std::vector<std::string> &chip_specs, int workers,
           const std::string &journal_path = "", int cell_budget = 0)
{
    sim::Platform platform = templatePlatform();
    FleetConfig config;
    config.chips = parseFleetSpec(chip_specs);
    config.framework = sweepConfig();
    config.framework.workers = workers;
    config.framework.journalPath = journal_path;
    config.framework.cellBudget = cell_budget;
    FleetExecutor executor(&platform);
    return executor.run(config);
}

TEST(FleetExecutor, ThreeChipReportIdenticalAcrossWorkerCounts)
{
    const std::vector<std::string> chips = {"TTT", "TFF:2", "TSS:3"};
    const FleetReport one = fleetSweep(chips, 1);
    ASSERT_EQ(one.chips.size(), 3u);
    ASSERT_EQ(one.chips[0].report.cells.size(), 8u);

    const std::string bytes = one.serialize();
    EXPECT_EQ(fleetSweep(chips, 2).serialize(), bytes)
        << "2 workers must serialize byte-identically to 1";
    EXPECT_EQ(fleetSweep(chips, 8).serialize(), bytes)
        << "8 workers must serialize byte-identically to 1";
}

TEST(FleetExecutor, ReportIndependentOfChipEnumerationOrder)
{
    const std::string bytes =
        fleetSweep({"TTT", "TFF:2", "TSS:3"}, 4).serialize();
    EXPECT_EQ(fleetSweep({"TSS:3", "TTT", "TFF:2"}, 4).serialize(),
              bytes);
    EXPECT_EQ(fleetSweep({"TFF:2", "TSS:3", "TTT"}, 8).serialize(),
              bytes);
}

TEST(FleetExecutor, SingleChipFleetMatchesFramework)
{
    // A fleet of one must collapse to exactly the single-chip
    // sweep: same chip identity, same report bytes, whether run
    // in one go or budget-chopped and resumed through either entry
    // point's journal.
    const FleetReport fleet = fleetSweep({"TFF:2"}, 4);
    ASSERT_EQ(fleet.chips.size(), 1u);

    sim::Platform platform(sim::XGene2Params{}, sim::ChipCorner::TFF,
                           2);
    platform.installFaultPlan(hostilePlan());
    const auto soloSweep = [&](int workers,
                               const std::string &journal_path = "",
                               int cell_budget = 0) {
        FrameworkConfig config = sweepConfig();
        config.workers = workers;
        config.journalPath = journal_path;
        config.cellBudget = cell_budget;
        CharacterizationFramework framework(&platform);
        return framework.characterize(config);
    };
    const CharacterizationReport solo = soloSweep(4);
    const std::string bytes = serializeReport(solo);

    EXPECT_EQ(serializeReport(fleet.chips[0].report), bytes);
    EXPECT_EQ(fleet.chips[0].report.cells, solo.cells);

    // Kill+resume: 3 fresh cells per session chop the 8 cells into
    // 3 sessions, for each entry point at each worker count.
    const std::string path = "/tmp/vmargin_single_chip_resume";
    for (const int workers : {1, 2, 8}) {
        for (const bool as_fleet : {false, true}) {
            std::remove(path.c_str());
            CharacterizationReport report;
            int sessions = 0;
            do {
                if (as_fleet)
                    report = fleetSweep({"TFF:2"}, workers, path, 3)
                                 .chips[0]
                                 .report;
                else
                    report = soloSweep(workers, path, 3);
                ASSERT_LE(++sessions, 3) << "8 cells / 3 per session";
            } while (!report.complete);
            EXPECT_EQ(sessions, 3);
            EXPECT_EQ(serializeReport(report), bytes)
                << (as_fleet ? "FleetExecutor" : "CharacterizationFramework")
                << " resume at " << workers << " workers";
        }
    }
    std::remove(path.c_str());

    // The journal headers bind files already on disk: the strings
    // are pinned so neither entry point can drift from them.
    FleetConfig fleet_config;
    fleet_config.chips = parseFleetSpec({"TFF:2"});
    fleet_config.framework = sweepConfig();
    EXPECT_EQ(journalHeaderFor(fleet_config.framework, platform),
              "vmargin-journal chip=TFF#2 corner=TFF freq=2400 "
              "config=fc77a825ed198c4f");
    EXPECT_EQ(fleetJournalHeaderFor(fleet_config, templatePlatform()),
              "vmargin-fleet-journal chips=1 corners=TFF#2 freq=2400 "
              "config=236e85912670e735");
}

TEST(FleetExecutor, SharedJournalResumesWholeFleet)
{
    const std::string path = "/tmp/vmargin_fleet_journal_resume";
    std::remove(path.c_str());
    const std::vector<std::string> chips = {"TTT", "TFF:2"};

    const FleetReport fresh = fleetSweep(chips, 8, path);
    const uint64_t replays_before = counterValue(kFromJournal);
    const FleetReport resumed = fleetSweep(chips, 1, path);
    // Every (chip, workload, core) cell must come from the journal.
    EXPECT_EQ(counterValue(kFromJournal) - replays_before, 2u * 8u);
    EXPECT_EQ(resumed.serialize(), fresh.serialize());
    std::remove(path.c_str());
}

TEST(FleetExecutor, DamagedJournalResumesAlikeAtAnyWorkerCount)
{
    // A journal with flipped bytes in three frames and a torn tail:
    // the resume re-measures the refused cells and reproduces the
    // fresh report, and what it prints — the replay's warnings, then
    // the sweep's — is the same at 1, 2 and 8 workers, whose pools
    // the journal verifies and decodes on.
    const std::string path = "/tmp/vmargin_fleet_journal_damaged";
    std::remove(path.c_str());
    const std::vector<std::string> chips = {"TTT", "TFF:2"};
    const std::string fresh = fleetSweep(chips, 2, path).serialize();
    std::string damaged;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        damaged = bytes.str();
    }
    ASSERT_GT(damaged.size(), 1000u);
    for (const size_t percent : {30, 55, 80})
        damaged[damaged.size() * percent / 100] ^= 0x5a;
    damaged.resize(damaged.size() - 10);

    std::string first_warnings;
    for (const int workers : {1, 2, 8}) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << damaged;
        }
        ::testing::internal::CaptureStderr();
        const std::string resumed =
            fleetSweep(chips, workers, path).serialize();
        const std::string warnings =
            ::testing::internal::GetCapturedStderr();
        EXPECT_EQ(resumed, fresh);
        EXPECT_NE(warnings.find("truncated record"), std::string::npos)
            << warnings;
        if (workers == 1)
            first_warnings = warnings;
        EXPECT_EQ(warnings, first_warnings);
    }
    std::remove(path.c_str());
}

TEST(FleetExecutor, ShuffledChipOrderResumesTheSameJournal)
{
    const std::string path = "/tmp/vmargin_fleet_journal_shuffle";
    std::remove(path.c_str());

    const FleetReport fresh =
        fleetSweep({"TTT", "TFF:2", "TSS:3"}, 4, path);
    // A reordered --chip list binds to the same header and replays
    // every cell.
    const uint64_t replays_before = counterValue(kFromJournal);
    const FleetReport resumed =
        fleetSweep({"TSS:3", "TFF:2", "TTT"}, 2, path);
    EXPECT_EQ(counterValue(kFromJournal) - replays_before, 3u * 8u);
    EXPECT_EQ(resumed.serialize(), fresh.serialize());
    std::remove(path.c_str());
}

TEST(FleetExecutor, BudgetedSessionsMatchSingleShot)
{
    // Kill+resume: a fleet-wide budget of 5 fresh cells per session
    // chops 24 cells into 5 sessions; the reassembled report must
    // match the uninterrupted sweep byte for byte under the hostile
    // fault plan.
    const std::string path = "/tmp/vmargin_fleet_budget_journal";
    std::remove(path.c_str());
    const std::vector<std::string> chips = {"TTT", "TFF:2", "TSS:3"};

    const FleetReport reference = fleetSweep(chips, 4);

    FleetReport report;
    int sessions = 0;
    do {
        report = fleetSweep(chips, 4, path, 5);
        ++sessions;
        ASSERT_LE(sessions, 5) << "24 cells / 5 per session";
    } while (!report.complete);

    EXPECT_EQ(sessions, 5);
    EXPECT_EQ(report.serialize(), reference.serialize());
    std::remove(path.c_str());
}

TEST(FleetExecutor, SharedCacheServesEveryChipApart)
{
    // One cache file serves the whole fleet: a second sweep re-runs
    // nothing, and each chip's cells come back from its own keys.
    const std::string path = "/tmp/vmargin_fleet_cache";
    std::remove(path.c_str());
    const std::vector<std::string> chips = {"TTT", "TFF:2"};

    sim::Platform platform = templatePlatform();
    FleetConfig config;
    config.chips = parseFleetSpec(chips);
    config.framework = sweepConfig();
    config.framework.workers = 4;
    config.framework.cachePath = path;

    FleetExecutor executor(&platform);
    const FleetReport fresh = executor.run(config);
    const uint64_t hits_before = counterValue(kCacheHits);
    const FleetReport cached = executor.run(config);
    EXPECT_EQ(counterValue(kCacheHits) - hits_before, 2u * 8u);
    EXPECT_EQ(cached.serialize(), fresh.serialize());
    std::remove(path.c_str());
}

TEST(FleetExecutor, MixedSourcesIdenticalAtAnyWorkerCount)
{
    // One run serves some cells from the journal, some from the
    // cache and measures the rest, within and across chips; every
    // source must merge to the all-fresh report at any worker count.
    const std::string journal = "/tmp/vmargin_fleet_mixed_journal";
    const std::string cache = "/tmp/vmargin_fleet_mixed_cache";
    const std::vector<std::string> chips = {"TTT", "TFF:2", "TSS:3"};
    const std::string bytes = fleetSweep(chips, 4).serialize();

    for (const int workers : {1, 2, 8}) {
        std::remove(journal.c_str());
        std::remove(cache.c_str());
        // The journal holds the first chip's first 5 cells.
        (void)fleetSweep(chips, workers, journal, 5);
        // The cache holds bwaves on TTT and TFF:2.
        sim::Platform platform = templatePlatform();
        FleetConfig config;
        config.chips = parseFleetSpec({"TTT", "TFF:2"});
        config.framework = sweepConfig();
        config.framework.workloads = {wl::findWorkload("bwaves/ref")};
        config.framework.workers = workers;
        config.framework.cachePath = cache;
        FleetExecutor warm(&platform);
        (void)warm.run(config);

        config.chips = parseFleetSpec(chips);
        config.framework = sweepConfig();
        config.framework.workers = workers;
        config.framework.journalPath = journal;
        config.framework.cachePath = cache;
        const uint64_t journal_before = counterValue(kFromJournal);
        const uint64_t cache_before = counterValue(kCacheHits);
        const uint64_t fresh_before = counterValue(kFresh);
        FleetExecutor executor(&platform);
        const FleetReport mixed = executor.run(config);
        EXPECT_EQ(counterValue(kFromJournal) - journal_before, 5u);
        EXPECT_EQ(counterValue(kCacheHits) - cache_before, 4u);
        EXPECT_EQ(counterValue(kFresh) - fresh_before, 15u);
        EXPECT_EQ(mixed.serialize(), bytes)
            << "mixed sources at " << workers << " workers";
    }
    std::remove(journal.c_str());
    std::remove(cache.c_str());
}

TEST(FleetExecutor, RunBlocksFollowTheCells)
{
    // At this failure rate some cells are lost. Each chip's report
    // holds one run block per cell it kept, in the order of `cells`,
    // whether the cells were measured, replayed from the journal or
    // served from the cache.
    const std::string journal = "/tmp/vmargin_test_fleet_blocks.journal";
    const std::string cache = "/tmp/vmargin_test_fleet_blocks.cache";
    std::remove(journal.c_str());
    std::remove(cache.c_str());
    const auto lossySweep = [&](int workers, const std::string &journal_path,
                                const std::string &cache_path) {
        sim::FaultPlanConfig plan = hostilePlan();
        plan.i2cWriteFailure = 0.9;
        sim::Platform platform(sim::XGene2Params{},
                               sim::ChipCorner::TTT, 1);
        platform.installFaultPlan(plan);
        FleetConfig config;
        config.chips = parseFleetSpec({"TTT", "TFF:2"});
        config.framework = sweepConfig();
        config.framework.workers = workers;
        config.framework.journalPath = journal_path;
        config.framework.cachePath = cache_path;
        FleetExecutor executor(&platform);
        ::testing::internal::CaptureStderr();
        FleetReport report = executor.run(config);
        ::testing::internal::GetCapturedStderr();
        return report;
    };
    const auto expectBlocksFollowCells = [](const FleetReport &fleet) {
        size_t kept = 0;
        for (const FleetChipReport &chip : fleet.chips) {
            const CharacterizationReport &report = chip.report;
            ASSERT_EQ(report.runBlocks.size(), report.cells.size());
            for (size_t i = 0; i < report.cells.size(); ++i) {
                const CellResult &cell = report.cells[i];
                ASSERT_FALSE(report.runBlocks[i].empty());
                for (const ClassifiedRun &run : report.runBlocks[i]) {
                    EXPECT_EQ(run.key.workloadId, cell.workloadId);
                    EXPECT_EQ(run.key.core, cell.core);
                }
            }
            kept += report.cells.size();
        }
        EXPECT_GT(kept, 0u);
        EXPECT_LT(kept, 16u) << "some cells must be lost";
    };

    const FleetReport fresh = lossySweep(1, journal, "");
    expectBlocksFollowCells(fresh);
    const FleetReport parallel = lossySweep(4, "", cache);
    expectBlocksFollowCells(parallel);
    const FleetReport replayed = lossySweep(4, journal, "");
    expectBlocksFollowCells(replayed);
    const FleetReport cached = lossySweep(2, "", cache);
    expectBlocksFollowCells(cached);
    for (const FleetReport *other : {&parallel, &replayed, &cached})
        for (size_t chip = 0; chip < fresh.chips.size(); ++chip)
            EXPECT_EQ(other->chips[chip].report.runBlocks,
                      fresh.chips[chip].report.runBlocks);
    std::remove(journal.c_str());
    std::remove(cache.c_str());
}

TEST(FleetExecutor, LostCellWarningsInPlanOrder)
{
    // Whole cells are lost to failed I2C writes, and some of the rest
    // have a censored Vmin. Both warnings print after the merge
    // barrier, chip by chip: the chip's lost cells in plan order,
    // then its censored cells. So stderr is the same at any worker
    // count.
    const auto lossySweep = [](int workers, double i2c_failure) {
        sim::FaultPlanConfig plan = hostilePlan();
        plan.i2cWriteFailure = i2c_failure;
        sim::Platform platform(sim::XGene2Params{},
                               sim::ChipCorner::TTT, 1);
        platform.installFaultPlan(plan);
        FleetConfig config;
        config.chips = parseFleetSpec({"TTT", "TFF:2"});
        config.framework = sweepConfig();
        config.framework.workers = workers;
        FleetExecutor executor(&platform);
        ::testing::internal::CaptureStderr();
        FleetReport report = executor.run(config);
        return std::make_pair(::testing::internal::GetCapturedStderr(),
                              std::move(report));
    };
    // The warnings a report implies, in the order above.
    const auto warningsOf = [](const FleetReport &report) {
        std::string out;
        for (const FleetChipReport &chip : report.chips) {
            const std::vector<CellResult> &cells = chip.report.cells;
            for (const std::string workload :
                 {"bwaves/ref", "leslie3d/ref"})
                for (const int core : {0, 2, 4, 6})
                    if (std::none_of(cells.begin(), cells.end(),
                                     [&](const CellResult &cell) {
                                         return cell.workloadId ==
                                                    workload &&
                                                cell.core == core;
                                     }))
                        out += "warn: characterize: every run of " +
                               workload + " on core " +
                               std::to_string(core) +
                               " was lost to management faults; "
                               "cell omitted from the report\n";
            for (const CellResult &cell : cells)
                if (cell.analysis.regions.rbegin()->second !=
                    Region::Safe)
                    out += "warn: analyzeRegions: " + cell.workloadId +
                           " core " + std::to_string(cell.core) +
                           " abnormal at the top of the sweep; Vmin "
                           "is censored at " +
                           std::to_string(cell.analysis.vmin) +
                           " mV\n";
        }
        return out;
    };

    const auto [all_lost, all_lost_report] = lossySweep(1, 1.0);
    EXPECT_TRUE(all_lost_report.chips[0].report.cells.empty());
    EXPECT_EQ(all_lost, warningsOf(all_lost_report));

    const auto [one, one_report] = lossySweep(1, 0.9);
    const std::string expected = warningsOf(one_report);
    EXPECT_NE(expected.find("was lost"), std::string::npos);
    EXPECT_NE(expected.find("Vmin is censored"), std::string::npos);
    EXPECT_EQ(one, expected);
    for (int repeat = 0; repeat < 3; ++repeat) {
        const auto [eight, eight_report] = lossySweep(8, 0.9);
        EXPECT_EQ(eight, one);
        EXPECT_EQ(eight_report.serialize(), one_report.serialize());
    }
}

TEST(FleetExecutorDeath, RefusesOutOfRangeCoreBeforeSweeping)
{
    // Refused before the journal opens or the pool starts, naming
    // the core and the chip.
    const std::string path = "/tmp/vmargin_fleet_core_range";
    std::remove(path.c_str());
    sim::Platform platform = templatePlatform();
    FleetConfig config;
    config.chips = parseFleetSpec({"TTT", "TFF:2"});
    config.framework = sweepConfig();
    config.framework.cores = {0, 99};
    config.framework.workers = 2;
    config.framework.journalPath = path;
    FleetExecutor executor(&platform);
    EXPECT_EXIT((void)executor.run(config),
                ::testing::ExitedWithCode(1),
                "core 99 is out of range \\(chip .*TTT.* has 8 cores");
    EXPECT_EQ(std::fopen(path.c_str(), "r"), nullptr)
        << "no journal may be created";
}

TEST(FleetExecutorDeath, RefusesJournalFromDifferentFleet)
{
    const std::string path = "/tmp/vmargin_fleet_journal_mismatch";
    std::remove(path.c_str());
    (void)fleetSweep({"TTT", "TFF:2"}, 2, path);
    EXPECT_EXIT((void)fleetSweep({"TTT", "TSS:3"}, 2, path),
                ::testing::ExitedWithCode(1),
                "different experiment");
    std::remove(path.c_str());
}

} // namespace
} // namespace vmargin
