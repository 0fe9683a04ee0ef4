/**
 * @file
 * Tests for the management-plane recovery layer: retry policy,
 * retrying SLIMpro facade, fault-tolerant campaigns, and the
 * write-ahead journal that lets a killed sweep resume.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "core/recovery.hh"
#include "core/resultstore.hh"
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

sim::Platform
machine(uint32_t serial = 1)
{
    return sim::Platform(sim::XGene2Params{}, sim::ChipCorner::TTT,
                         serial);
}

/** Moderate hostility: the acceptance scenario from the paper's
 *  follow-up (I2C NAKs, missed power cycles, rare hangs). */
sim::FaultPlanConfig
moderatePlan()
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
smallConfig()
{
    FrameworkConfig config;
    config.workloads = {wl::findWorkload("leslie3d/ref")};
    config.cores = {0, 4};
    config.campaigns = 2;
    config.maxEpochs = 8;
    config.startVoltage = 930;
    config.endVoltage = 870;
    return config;
}

TEST(RetryPolicyDeath, RejectsEmptyBudgets)
{
    RetryPolicy zero_attempts;
    zero_attempts.attemptsPerOp = 0;
    EXPECT_EXIT(zero_attempts.validate(),
                ::testing::ExitedWithCode(1), "attemptsPerOp");

    RetryPolicy zero_polls;
    zero_polls.watchdogPolls = 0;
    EXPECT_EXIT(zero_polls.validate(), ::testing::ExitedWithCode(1),
                "watchdogPolls");

    RetryPolicy inverted_backoff;
    inverted_backoff.backoffBaseUs = 1000;
    inverted_backoff.backoffCapUs = 100;
    EXPECT_EXIT(inverted_backoff.validate(),
                ::testing::ExitedWithCode(1), "backoffCap");
}

TEST(RecoveryTelemetry, MergeAndSinceAreFieldWise)
{
    RecoveryTelemetry a;
    a.retries = 3;
    a.backoffEvents = 3;
    a.backoffUsTotal = 1400;
    a.watchdogRetries = 2;
    a.lostMeasurements = 1;
    a.fallbackRounds = 4;

    RecoveryTelemetry b = a;
    b.merge(a);
    EXPECT_EQ(b.retries, 6u);
    EXPECT_EQ(b.backoffUsTotal, 2800u);
    EXPECT_EQ(b.fallbackRounds, 8u);

    const RecoveryTelemetry delta = b.since(a);
    EXPECT_EQ(delta.retries, a.retries);
    EXPECT_EQ(delta.backoffEvents, a.backoffEvents);
    EXPECT_EQ(delta.backoffUsTotal, a.backoffUsTotal);
    EXPECT_EQ(delta.watchdogRetries, a.watchdogRetries);
    EXPECT_EQ(delta.lostMeasurements, a.lostMeasurements);
    EXPECT_EQ(delta.fallbackRounds, a.fallbackRounds);
}

TEST(ManagedSlimPro, ExhaustsBudgetUnderTotalNak)
{
    sim::Platform p = machine();
    sim::FaultPlanConfig plan;
    plan.i2cWriteFailure = 1.0;
    plan.seed = 5;
    p.installFaultPlan(plan);

    sim::SlimPro slimpro(&p);
    sim::Watchdog watchdog(&p);
    ManagedSlimPro managed(&p, &slimpro, &watchdog);

    EXPECT_FALSE(managed.setPmdVoltage(900));
    // Default policy: 4 attempts => 3 retries backing off
    // 200 + 400 + 800 simulated microseconds.
    EXPECT_EQ(managed.telemetry().retries, 3u);
    EXPECT_EQ(managed.telemetry().backoffEvents, 3u);
    EXPECT_EQ(managed.telemetry().backoffUsTotal, 1400u);
    EXPECT_TRUE(p.responsive()) << "NAKs never hang the machine";
}

TEST(ManagedSlimPro, RetriesRideOutTransientNaks)
{
    sim::Platform p = machine();
    sim::FaultPlanConfig plan;
    plan.i2cWriteFailure = 0.5;
    plan.seed = 17;
    p.installFaultPlan(plan);

    sim::SlimPro slimpro(&p);
    sim::Watchdog watchdog(&p);
    ManagedSlimPro managed(&p, &slimpro, &watchdog);

    int succeeded = 0;
    for (int i = 0; i < 20; ++i)
        succeeded += managed.setPmdVoltage(i % 2 ? 900 : 905);
    // P(4 straight NAKs) = 1/16 per call: most calls must land.
    EXPECT_GE(succeeded, 15);
    EXPECT_GT(managed.telemetry().retries, 0u)
        << "half the first attempts fail; retries must have fired";
}

TEST(ManagedSlimPro, ReviveGivesUpAfterPollBudget)
{
    sim::Platform p = machine();
    sim::FaultPlanConfig plan;
    plan.watchdogMiss = 1.0;
    plan.seed = 5;
    p.installFaultPlan(plan);

    sim::SlimPro slimpro(&p);
    sim::Watchdog watchdog(&p);
    ManagedSlimPro managed(&p, &slimpro, &watchdog);

    p.hang();
    EXPECT_FALSE(managed.revive(sim::WatchdogContext::RecoveryPoll));
    EXPECT_EQ(watchdog.missedCycles(), 8u) << "one per poll";
    EXPECT_EQ(managed.telemetry().watchdogRetries, 7u)
        << "polls past the first are counted as retries";

    // A healthy watchdog revives the machine on the next poll.
    p.clearFaultPlan();
    EXPECT_TRUE(managed.revive(sim::WatchdogContext::RecoveryPoll));
    EXPECT_TRUE(p.responsive());
}

TEST(CampaignRecovery, TotalManagementFailureLosesRunsNotProcess)
{
    sim::Platform p = machine();
    sim::FaultPlanConfig plan;
    plan.i2cWriteFailure = 1.0;
    plan.seed = 7;
    p.installFaultPlan(plan);

    CampaignRunner runner(&p);
    CampaignConfig config;
    config.workload = wl::findWorkload("bwaves/ref");
    config.core = 0;
    config.startVoltage = 900;
    config.endVoltage = 880;
    config.maxEpochs = 8;

    // Every setpoint transaction fails for good: the campaign must
    // complete anyway, recording every run as lost.
    const CampaignResult result = runner.run(config);
    EXPECT_TRUE(result.runs.empty());
    EXPECT_EQ(result.lostRuns.size(), 5u)
        << "900..880 mV in 5 mV steps, one run each";
    EXPECT_EQ(result.telemetry.lostMeasurements, 5u);
    EXPECT_GT(result.telemetry.retries, 0u);
    EXPECT_TRUE(p.responsive());
}

TEST(CampaignRecovery, LowestVoltageNotClaimedForFullyLostLevels)
{
    // Regression: lowestVoltageReached used to advance on every
    // sweep level even when the management plane swallowed all of
    // that level's runs — the campaign then claimed to have
    // characterized voltages it never actually ran at.
    sim::Platform p = machine();
    sim::FaultPlanConfig plan;
    plan.i2cWriteFailure = 1.0;
    plan.seed = 7;
    p.installFaultPlan(plan);

    CampaignRunner runner(&p);
    CampaignConfig config;
    config.workload = wl::findWorkload("bwaves/ref");
    config.core = 0;
    config.startVoltage = 900;
    config.endVoltage = 880;
    config.maxEpochs = 8;

    const CampaignResult result = runner.run(config);
    EXPECT_TRUE(result.runs.empty());
    EXPECT_FALSE(result.lostRuns.empty());
    EXPECT_EQ(result.lowestVoltageReached, 0)
        << "a level with zero executed runs was never reached";
}

TEST(CampaignRecovery, FullyLostCellsAreOmittedNotFatal)
{
    // Even at 100% management failure the sweep itself must finish:
    // cells whose every run was lost are dropped from the report
    // with their losses accounted, and the process stays alive.
    sim::Platform p = machine();
    sim::FaultPlanConfig plan;
    plan.i2cWriteFailure = 1.0;
    plan.seed = 7;
    p.installFaultPlan(plan);

    CharacterizationFramework framework(&p);
    const auto report = framework.characterize(smallConfig());
    EXPECT_TRUE(report.cells.empty());
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.totalRuns, 0u);
    EXPECT_GT(report.telemetry.lostMeasurements, 0u);
    EXPECT_GT(report.telemetry.retries, 0u);
}

TEST(CampaignRecovery, ModerateFaultsKeepVminClose)
{
    // Acceptance scenario: >=10% SLIMpro failures and >=5% missed
    // watchdog cycles must not abort the sweep, and the measured
    // Vmin must stay within one or two voltage steps of fault-free.
    sim::Platform clean = machine(8);
    sim::Platform faulty = machine(8);
    faulty.installFaultPlan(moderatePlan());

    CharacterizationFramework clean_fw(&clean);
    CharacterizationFramework faulty_fw(&faulty);
    const FrameworkConfig config = smallConfig();

    const auto reference = clean_fw.characterize(config);
    const auto hostile = faulty_fw.characterize(config);

    EXPECT_GT(hostile.telemetry.retries, 0u)
        << "a 10% NAK rate must exercise the retry layer";
    ASSERT_EQ(hostile.cells.size(), reference.cells.size());
    for (const auto &cell : reference.cells) {
        const auto &other =
            hostile.cell(cell.workloadId, cell.core);
        EXPECT_LE(std::abs(other.analysis.vmin -
                           cell.analysis.vmin),
                  10)
            << cell.workloadId << " core " << cell.core;
    }
}

TEST(Journal, ResumedSweepMatchesSingleShot)
{
    const std::string path = "/tmp/vmargin_test_journal_resume";
    std::remove(path.c_str());

    // Reference: the whole sweep in one uninterrupted session.
    sim::Platform ref_platform = machine(12);
    ref_platform.installFaultPlan(moderatePlan());
    CharacterizationFramework ref_fw(&ref_platform);
    FrameworkConfig config = smallConfig();
    const auto reference = ref_fw.characterize(config);

    // Sessions: one fresh cell per characterize() call, a brand-new
    // platform + framework each time — the process was "killed" and
    // restarted between cells; only the journal carries state over.
    config.journalPath = path;
    config.cellBudget = 1;
    CharacterizationReport resumed;
    int sessions = 0;
    uint64_t replays = 0;
    do {
        sim::Platform p = machine(12);
        p.installFaultPlan(moderatePlan());
        CharacterizationFramework fw(&p);
        const uint64_t replays_before = counterValue(kFromJournal);
        resumed = fw.characterize(config);
        replays = counterValue(kFromJournal) - replays_before;
        ++sessions;
        ASSERT_LE(sessions, 3) << "two cells need two sessions";
    } while (!resumed.complete);

    EXPECT_EQ(sessions, 2);
    EXPECT_EQ(replays, 1u)
        << "the final session replays the first session's cell";
    EXPECT_EQ(serializeReport(resumed), serializeReport(reference))
        << "journal replay must reproduce the single-shot report "
           "byte for byte";
    std::remove(path.c_str());
}

TEST(Journal, TruncatedTailIsRerun)
{
    const std::string path = "/tmp/vmargin_test_journal_truncated";
    std::remove(path.c_str());

    sim::Platform ref_platform = machine(13);
    CharacterizationFramework ref_fw(&ref_platform);
    FrameworkConfig config = smallConfig();
    const auto reference = ref_fw.characterize(config);

    config.journalPath = path;
    config.cellBudget = 1;
    {
        sim::Platform p = machine(13);
        CharacterizationFramework fw(&p);
        const auto partial = fw.characterize(config);
        ASSERT_FALSE(partial.complete);
    }

    // Simulate a kill mid-append: half of a run frame with no
    // commit behind it — the ledger must discard the tail.
    {
        RunRecord run;
        run.key.workloadId = "leslie3d/ref";
        run.key.core = 4;
        run.key.voltage = 930;
        std::string frame;
        appendFrame(frame, encodeRunRecord(run));
        std::ofstream out(path,
                          std::ios::binary | std::ios::app);
        out << frame.substr(0, frame.size() / 2);
    }

    sim::Platform p = machine(13);
    CharacterizationFramework fw(&p);
    config.cellBudget = 0;
    const uint64_t replays_before = counterValue(kFromJournal);
    const auto resumed = fw.characterize(config);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(counterValue(kFromJournal) - replays_before, 1u)
        << "only the intact first cell is trusted";
    EXPECT_EQ(serializeReport(resumed), serializeReport(reference));
    std::remove(path.c_str());
}

TEST(JournalDeath, RefusesForeignJournal)
{
    const std::string path = "/tmp/vmargin_test_journal_foreign";
    std::remove(path.c_str());

    FrameworkConfig config = smallConfig();
    config.journalPath = path;
    config.cellBudget = 1;
    {
        sim::Platform p = machine(14);
        CharacterizationFramework fw(&p);
        (void)fw.characterize(config);
    }

    // Same journal, different experiment: must be refused loudly
    // rather than silently mixing incompatible measurements.
    FrameworkConfig other = config;
    other.endVoltage = 900;
    sim::Platform p = machine(14);
    CharacterizationFramework fw(&p);
    EXPECT_EXIT(fw.characterize(other), ::testing::ExitedWithCode(1),
                "journal");
    std::remove(path.c_str());
}

TEST(FrameworkConfigDeath, RejectsNegativeCellBudget)
{
    FrameworkConfig config = smallConfig();
    config.cellBudget = -1;
    EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1),
                "cell_budget");
}

} // namespace
} // namespace vmargin
