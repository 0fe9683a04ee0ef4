/**
 * @file
 * Fleet determinism suite: the three-chip fleet report must be
 * byte-identical for any worker count AND any chip enumeration
 * order, a single-chip fleet must reproduce the lone
 * CampaignExecutor's report byte for byte (also across a
 * budget-chopped resume through either entry point), and a
 * budget-chopped fleet sweep resumed through the shared journal —
 * under a hostile management-plane fault plan — must reassemble the
 * single-shot report exactly.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/executor.hh"
#include "core/fleet.hh"
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

TEST(FleetExecutor, SingleChipFleetMatchesCampaignExecutor)
{
    // A fleet of one must collapse to exactly the single-chip
    // executor: same chip identity, same report bytes, whether run
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
        CampaignExecutor executor(&platform);
        return executor.run(config);
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
                << (as_fleet ? "FleetExecutor" : "CampaignExecutor")
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
