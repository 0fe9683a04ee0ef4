/**
 * @file
 * Determinism contract of the parallel campaign executor: the same
 * configuration must produce byte-identical serialized reports at
 * any worker count — with fault injection enabled — and journals
 * that are identical after canonical sort (on-disk journal order is
 * completion order, the one artifact allowed to vary).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "../core/ledger_files.hh"
#include "core/executor.hh"
#include "core/framework.hh"
#include "core/ledger.hh"
#include "core/resultstore.hh"
#include "obs/metrics.hh"
#include "util/config.hh"
#include "workloads/spec.hh"

namespace vmargin
{
namespace
{

using ledger_files::encoded;

/** Current value of an exact executor counter; tests read deltas. */
uint64_t
counterValue(const char *name)
{
    return obs::Registry::global().counter(name).value();
}

constexpr const char *kFromJournal = "executor.cells_from_journal";

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

CharacterizationReport
sweep(int workers, const std::string &journal_path = "")
{
    sim::Platform platform(sim::XGene2Params{}, sim::ChipCorner::TTT,
                           7);
    platform.installFaultPlan(hostilePlan());
    CharacterizationFramework framework(&platform);
    FrameworkConfig config = sweepConfig();
    config.workers = workers;
    config.journalPath = journal_path;
    return framework.characterize(config);
}

/** Journal contents re-framed with cells in canonical (workload,
 *  core) order — on-disk order is completion order, the one artifact
 *  allowed to vary between worker counts. */
std::string
canonicalizeJournal(const std::string &path)
{
    sim::Platform platform(sim::XGene2Params{}, sim::ChipCorner::TTT,
                           7);
    platform.installFaultPlan(hostilePlan());
    CampaignJournal journal(path);
    journal.open(journalHeaderFor(sweepConfig(), platform));
    EXPECT_EQ(journal.size(), 8u) << "every cell must be committed";

    auto entries = journal.entries();
    std::sort(entries.begin(), entries.end(),
              [](const RunLedger::Entry &a, const RunLedger::Entry &b) {
                  if (a.cell.workloadId != b.cell.workloadId)
                      return a.cell.workloadId < b.cell.workloadId;
                  return a.cell.core < b.cell.core;
              });

    std::string out;
    for (const auto &entry : entries) {
        for (const auto &run : entry.cell.runs)
            appendFrame(out, encoded(encodeRunRecordInto, run));
        CellCommit commit;
        commit.configHash = entry.configHash;
        commit.workloadId = entry.cell.workloadId;
        commit.core = entry.cell.core;
        commit.runCount =
            static_cast<uint32_t>(entry.cell.runs.size());
        commit.watchdogInterventions =
            entry.cell.watchdogInterventions;
        commit.telemetry = entry.cell.telemetry;
        appendFrame(out, encoded(encodeCellCommitInto, commit, 2u));
    }
    return out;
}

TEST(ParallelExecutor, WorkerCountsProduceIdenticalReports)
{
    const auto one = sweep(1);
    const auto two = sweep(2);
    const auto eight = sweep(8);

    EXPECT_GT(one.telemetry.retries, 0u)
        << "the hostile plan must exercise the retry layer";
    ASSERT_EQ(one.cells.size(), 8u);

    const std::string bytes = serializeReport(one);
    EXPECT_EQ(serializeReport(two), bytes)
        << "2 workers must serialize byte-identically to 1";
    EXPECT_EQ(serializeReport(eight), bytes)
        << "8 workers must serialize byte-identically to 1";
    EXPECT_EQ(one.toCsv(), two.toCsv());
    EXPECT_EQ(one.cells, eight.cells);
}

TEST(ParallelExecutor, JournalsIdenticalAfterCanonicalSort)
{
    const std::string path1 = "/tmp/vmargin_par_journal_w1";
    const std::string path8 = "/tmp/vmargin_par_journal_w8";
    std::remove(path1.c_str());
    std::remove(path8.c_str());

    const auto one = sweep(1, path1);
    const auto eight = sweep(8, path8);
    EXPECT_EQ(serializeReport(one), serializeReport(eight));

    EXPECT_EQ(canonicalizeJournal(path1),
              canonicalizeJournal(path8))
        << "journals may differ in completion order only";
    std::remove(path1.c_str());
    std::remove(path8.c_str());
}

TEST(ParallelExecutor, ParallelJournalResumesSequentially)
{
    // A sweep journaled by 8 workers (out-of-order appends) must be
    // replayable by a later single-worker session, and vice versa.
    const std::string path = "/tmp/vmargin_par_journal_resume";
    std::remove(path.c_str());

    const auto fresh = sweep(8, path);
    const uint64_t replays_before = counterValue(kFromJournal);
    const auto resumed = sweep(1, path);
    EXPECT_EQ(counterValue(kFromJournal) - replays_before, 8u)
        << "every cell must come from the journal";
    EXPECT_EQ(serializeReport(resumed), serializeReport(fresh));
    std::remove(path.c_str());
}

TEST(ParallelExecutor, CellBudgetSessionsMatchSingleShot)
{
    // Budgeted sessions with a parallel worker pool must still
    // reassemble the single-shot report byte for byte.
    const std::string path = "/tmp/vmargin_par_budget_journal";
    std::remove(path.c_str());

    const auto reference = sweep(4);

    FrameworkConfig config = sweepConfig();
    config.workers = 4;
    config.journalPath = path;
    config.cellBudget = 3;
    CharacterizationReport report;
    int sessions = 0;
    do {
        sim::Platform platform(sim::XGene2Params{},
                               sim::ChipCorner::TTT, 7);
        platform.installFaultPlan(hostilePlan());
        CharacterizationFramework framework(&platform);
        report = framework.characterize(config);
        ++sessions;
        ASSERT_LE(sessions, 4) << "8 cells / 3 per session";
    } while (!report.complete);

    EXPECT_EQ(sessions, 3);
    EXPECT_EQ(serializeReport(report), serializeReport(reference));
    std::remove(path.c_str());
}

TEST(ParallelExecutor, MatchesSingleCellMeasurement)
{
    // The executor's per-replica measurement must agree with the
    // sequential characterizeCell() path on the caller's platform.
    const auto report = sweep(8);
    sim::Platform platform(sim::XGene2Params{}, sim::ChipCorner::TTT,
                           7);
    platform.installFaultPlan(hostilePlan());
    CharacterizationFramework framework(&platform);
    const auto cell = framework.characterizeCell(
        wl::findWorkload("bwaves/ref"), 4, sweepConfig());
    EXPECT_EQ(cell.analysis.vmin,
              report.cell("bwaves/ref", 4).analysis.vmin);
}

TEST(ParallelExecutor, ConfigFileCarriesWorkersAndCache)
{
    const auto file = util::ConfigFile::fromText(
        "workloads = bwaves\n"
        "cores = 0\n"
        "workers = 4\n"
        "cache = /tmp/vmargin_cfg_cache\n");
    const auto config = FrameworkConfig::fromConfig(file);
    EXPECT_EQ(config.workers, 4);
    EXPECT_EQ(config.cachePath, "/tmp/vmargin_cfg_cache");
}

TEST(ParallelExecutorDeath, RejectsNegativeWorkers)
{
    FrameworkConfig config = sweepConfig();
    config.workers = -2;
    EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1),
                "workers");
}

} // namespace
} // namespace vmargin
