/**
 * @file
 * Margin supervisor tests: guardband hysteresis, quarantine and
 * canary re-admission, crash-storm clamping, checkpoint/restore —
 * and the daemon-level robustness properties the supervisor exists
 * for: byte-identical kill+resume through the journal, crash
 * reduction under management-plane faults, and worker-count
 * invariance of the whole characterize→train→supervise pipeline.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/predictor.hh"
#include "obs/metrics.hh"
#include "sched/daemon.hh"
#include "sim/platform.hh"
#include "util/rng.hh"
#include "workloads/spec.hh"

namespace vmargin::sched
{
namespace
{

DaemonRoundRecord
syntheticRound(int round, bool abnormal, bool crashed = false,
               bool pinned = false, bool canary = false,
               bool fallback = false)
{
    DaemonRoundRecord record;
    record.round = round;
    record.voltage = (pinned || fallback) ? 980 : 900;
    record.anyAbnormal = abnormal;
    record.crashed = crashed;
    record.safePinned = pinned;
    record.canaryProbe = canary;
    record.nominalFallback = fallback;
    return record;
}

CoreRoundEvents
coreEvents(CoreId core, uint64_t ce = 0, uint64_t ue = 0,
           bool sdc = false, bool crashed = false)
{
    CoreRoundEvents ev;
    ev.core = core;
    ev.ran = true;
    ev.correctedErrors = ce;
    ev.uncorrectedErrors = ue;
    ev.sdc = sdc;
    ev.crashed = crashed;
    return ev;
}

/** True when @p core is quarantined in @p sup's posture. */
bool
quarantined(const MarginSupervisor &sup, CoreId core)
{
    for (const auto &state : sup.posture().cores)
        if (state.core == core)
            return state.quarantined;
    return false;
}

TEST(Supervisor, GuardBacksOffFastAndNarrowsSlowly)
{
    MarginSupervisor sup;
    sup.track(0);
    sup.track(4);
    EXPECT_EQ(sup.posture().guardSteps, 0);

    // Fast back-off: one abnormal round widens by backoffGuardSteps.
    sup.observeRound(syntheticRound(0, true),
                     {coreEvents(0, 1), coreEvents(4)});
    EXPECT_EQ(sup.posture().guardSteps, 2);
    EXPECT_EQ(sup.posture().backoffEvents, 1u);
    sup.observeRound(syntheticRound(1, true),
                     {coreEvents(0, 1), coreEvents(4)});
    EXPECT_EQ(sup.posture().guardSteps, 4);
    EXPECT_EQ(sup.posture().peakGuardSteps, 4);

    // Slow narrowing: three clean rounds are not enough...
    for (int round = 2; round < 5; ++round)
        sup.observeRound(syntheticRound(round, false),
                         {coreEvents(0), coreEvents(4)});
    EXPECT_EQ(sup.posture().guardSteps, 4);
    EXPECT_EQ(sup.posture().narrowEvents, 0u);
    // ...the fourth narrows by exactly one step.
    sup.observeRound(syntheticRound(5, false),
                     {coreEvents(0), coreEvents(4)});
    EXPECT_EQ(sup.posture().guardSteps, 3);
    EXPECT_EQ(sup.posture().narrowEvents, 1u);
    EXPECT_EQ(sup.posture().peakGuardSteps, 4) << "peak is monotone";

    // An abnormal round resets the clean streak.
    for (int round = 6; round < 9; ++round)
        sup.observeRound(syntheticRound(round, false),
                         {coreEvents(0), coreEvents(4)});
    sup.observeRound(syntheticRound(9, true),
                     {coreEvents(0, 1), coreEvents(4)});
    EXPECT_EQ(sup.posture().guardSteps, 5);
    sup.observeRound(syntheticRound(10, false),
                     {coreEvents(0), coreEvents(4)});
    EXPECT_EQ(sup.posture().guardSteps, 5)
        << "the streak must restart after the back-off";
}

TEST(Supervisor, GuardCapsAtMaxGuardSteps)
{
    SupervisorOptions options;
    options.maxGuardSteps = 5;
    MarginSupervisor sup(options);
    sup.track(0);
    for (int round = 0; round < 4; ++round)
        sup.observeRound(syntheticRound(round, true),
                         {coreEvents(0, 1)});
    EXPECT_EQ(sup.posture().guardSteps, 5);
    EXPECT_EQ(sup.posture().peakGuardSteps, 5);
}

TEST(Supervisor, FallbackAndPinnedRoundsDoNotAdaptGuard)
{
    MarginSupervisor sup;
    sup.track(0);
    // A fallback round ran at the safe voltage, not the planned
    // setpoint: even an abnormal one says nothing about the margin.
    sup.observeRound(
        syntheticRound(0, true, false, false, false, true),
        {coreEvents(0, 1)});
    EXPECT_EQ(sup.posture().guardSteps, 0);
    EXPECT_EQ(sup.posture().backoffEvents, 0u);
    // Same for a safe-pinned round; it only counts as pinned.
    sup.observeRound(syntheticRound(1, false, false, true),
                     {coreEvents(0)});
    EXPECT_EQ(sup.posture().guardSteps, 0);
    EXPECT_EQ(sup.posture().pinnedRounds, 1u);
}

TEST(Supervisor, RepeatedSdcsQuarantineTheCore)
{
    MarginSupervisor sup;
    sup.track(0);
    sup.track(4);
    // EWMA (alpha .3) of an SDC every round on core 0:
    // 0.3, 0.51, 0.657 -> weighted score 0.6, 1.02, 1.31; the
    // default threshold (1.2) trips exactly on the third round.
    sup.observeRound(syntheticRound(0, true),
                     {coreEvents(0, 0, 0, true), coreEvents(4)});
    sup.observeRound(syntheticRound(1, true),
                     {coreEvents(0, 0, 0, true), coreEvents(4)});
    EXPECT_FALSE(quarantined(sup, 0));
    sup.observeRound(syntheticRound(2, true),
                     {coreEvents(0, 0, 0, true), coreEvents(4)});
    EXPECT_TRUE(quarantined(sup, 0));
    EXPECT_FALSE(quarantined(sup, 4));
    EXPECT_EQ(sup.posture().quarantines, 1u);
    ASSERT_EQ(sup.posture().quarantinedCores().size(), 1u);
    EXPECT_EQ(sup.posture().quarantinedCores()[0], 0);

    // The shared PMD domain pins the whole round safe while the
    // core heals — the canary hold has not been served yet.
    const RoundPlan plan = sup.planRound();
    EXPECT_FALSE(plan.undervolt);
    EXPECT_FALSE(plan.canary);
}

/** Drive @p sup into quarantine of core 0 (three SDC rounds). */
void
quarantineCoreZero(MarginSupervisor &sup)
{
    for (int round = 0; round < 3; ++round)
        sup.observeRound(syntheticRound(round, true),
                         {coreEvents(0, 0, 0, true), coreEvents(4)});
    ASSERT_TRUE(quarantined(sup, 0));
}

TEST(Supervisor, QuarantineHealsThroughCanaryReadmission)
{
    MarginSupervisor sup;
    sup.track(0);
    sup.track(4);
    quarantineCoreZero(sup);
    const int guard_before = sup.posture().guardSteps;

    // Serve the quarantine hold: clean pinned rounds.
    for (int round = 3; round < 6; ++round) {
        EXPECT_FALSE(sup.planRound().undervolt);
        sup.observeRound(syntheticRound(round, false, false, true),
                         {coreEvents(0), coreEvents(4)});
    }

    // Hold served: the next plan is a canary probe at a
    // stepped-down undervolt (deeper than safe, shallower than
    // normal).
    const RoundPlan probe = sup.planRound();
    EXPECT_TRUE(probe.undervolt);
    EXPECT_TRUE(probe.canary);
    EXPECT_EQ(probe.guardSteps,
              guard_before + sup.options().canaryGuardSteps);

    // A clean canary re-admits the core with a clean slate.
    sup.observeRound(syntheticRound(6, false, false, false, true),
                     {coreEvents(0), coreEvents(4)});
    EXPECT_FALSE(quarantined(sup, 0));
    EXPECT_EQ(sup.posture().readmissions, 1u);
    EXPECT_EQ(sup.posture().canaryRounds, 1u);
    EXPECT_EQ(sup.posture().canaryFailures, 0u);
    EXPECT_EQ(sup.posture().cores.at(0).sdcRate, 0.0)
        << "re-admission must reset the EWMA, or the first corrected "
           "error would re-quarantine the core";
    const RoundPlan after = sup.planRound();
    EXPECT_TRUE(after.undervolt);
    EXPECT_FALSE(after.canary);
}

TEST(Supervisor, FailedCanaryRestartsTheHold)
{
    MarginSupervisor sup;
    sup.track(0);
    sup.track(4);
    quarantineCoreZero(sup);
    for (int round = 3; round < 6; ++round)
        sup.observeRound(syntheticRound(round, false, false, true),
                         {coreEvents(0), coreEvents(4)});
    ASSERT_TRUE(sup.planRound().canary);

    // The probe misbehaves: the core stays quarantined and the
    // clean hold restarts from zero.
    sup.observeRound(syntheticRound(6, true, false, false, true),
                     {coreEvents(0, 0, 0, true), coreEvents(4)});
    EXPECT_TRUE(quarantined(sup, 0));
    EXPECT_EQ(sup.posture().canaryFailures, 1u);
    EXPECT_EQ(sup.posture().readmissions, 0u);
    EXPECT_FALSE(sup.planRound().undervolt)
        << "a failed canary restarts the quarantine hold";
}

TEST(Supervisor, CrashStormEscalatesToNominalClamp)
{
    MarginSupervisor sup;
    sup.track(0);
    // Two crashes in the window: no clamp yet.
    sup.observeRound(syntheticRound(0, true, true), {coreEvents(0)});
    sup.observeRound(syntheticRound(4, true, true), {coreEvents(0)});
    EXPECT_EQ(sup.posture().clampReason, ClampReason::None);
    // The third inside the 10-round window trips the clamp.
    sup.observeRound(syntheticRound(8, true, true), {coreEvents(0)});
    EXPECT_EQ(sup.posture().clampReason, ClampReason::CrashStorm);
    const RoundPlan plan = sup.planRound();
    EXPECT_FALSE(plan.undervolt);
    EXPECT_EQ(plan.clampReason, ClampReason::CrashStorm);

    // The clamp is permanent for the session: clean rounds cannot
    // undo it.
    for (int round = 9; round < 15; ++round)
        sup.observeRound(syntheticRound(round, false, false, true),
                         {coreEvents(0)});
    EXPECT_FALSE(sup.planRound().undervolt);
}

TEST(Supervisor, CrashesOutsideTheWindowDoNotClamp)
{
    MarginSupervisor sup;
    sup.track(0);
    // Crashes 11 rounds apart: each slides out before the next.
    sup.observeRound(syntheticRound(0, true, true), {coreEvents(0)});
    sup.observeRound(syntheticRound(11, true, true),
                     {coreEvents(0)});
    sup.observeRound(syntheticRound(22, true, true),
                     {coreEvents(0)});
    EXPECT_EQ(sup.posture().clampReason, ClampReason::None);
    EXPECT_TRUE(sup.planRound().undervolt);
}

TEST(Supervisor, EscalateIsIdempotentAndFirstReasonSticks)
{
    MarginSupervisor sup;
    sup.escalate(ClampReason::WatchdogExhausted);
    EXPECT_EQ(sup.posture().clampReason, ClampReason::WatchdogExhausted);
    sup.escalate(ClampReason::CrashStorm);
    EXPECT_EQ(sup.posture().clampReason, ClampReason::WatchdogExhausted)
        << "the first escalation reason must stick";
    EXPECT_FALSE(sup.planRound().undervolt);
}

TEST(Supervisor, CheckpointRestoreReproducesEveryDecision)
{
    MarginSupervisor original;
    original.track(0);
    original.track(4);
    // Learn a non-trivial posture: backed-off guard, core 0 one
    // clean pinned round into its quarantine hold.
    quarantineCoreZero(original);
    original.observeRound(syntheticRound(3, false, false, true),
                          {coreEvents(0), coreEvents(4)});

    SupervisorCheckpoint snapshot;
    original.checkpoint(snapshot);
    MarginSupervisor restored;
    restored.restore(snapshot);
    EXPECT_TRUE(snapshot.supervisorEnabled);
    EXPECT_EQ(restored.posture(), original.posture());

    // Same remaining history -> same plans, bit for bit: finish the
    // hold, pass the canary, then serve clean rounds.
    for (int round = 4; round < 12; ++round) {
        const RoundPlan a = original.planRound();
        EXPECT_EQ(restored.planRound(), a) << "round " << round;
        const DaemonRoundRecord record = syntheticRound(
            round, false, false, !a.undervolt, a.canary);
        const std::vector<CoreRoundEvents> events = {coreEvents(0),
                                                     coreEvents(4)};
        original.observeRound(record, events);
        restored.observeRound(record, events);
    }
    EXPECT_EQ(restored.posture(), original.posture());
    EXPECT_EQ(restored.posture().readmissions, 1u);
    EXPECT_TRUE(restored.posture().quarantinedCores().empty());
}

/** One round of a random supervisor stream, drawn up front so that
 *  the round's record can follow whatever the supervisor plans. */
struct StreamRound
{
    bool escalate = false; ///< a revive exhausted the watchdog
    ClampReason reason = ClampReason::None;
    bool fallback = false; ///< the setpoint could not be applied
    std::vector<CoreRoundEvents> events;
};

/** Cores the random streams track; core 3 reports events untracked
 *  and joins the posture mid-stream, between 2 and 4. */
constexpr CoreId kStreamCores[] = {0, 2, 4};

std::vector<StreamRound>
randomStream(Seed seed, int rounds)
{
    util::Rng rng(seed);
    // Each stream has its own hostility, from nearly clean (slow
    // narrowing, canaries that pass) to a crash storm.
    const double p = rng.uniform(0.01, 0.3);
    std::vector<StreamRound> stream(static_cast<size_t>(rounds));
    for (StreamRound &round : stream) {
        round.escalate = rng.uniform() < 0.01;
        round.reason = rng.uniform() < 0.5
                           ? ClampReason::CrashStorm
                           : ClampReason::WatchdogExhausted;
        round.fallback = rng.uniform() < 0.1;
        for (const CoreId core : {0, 2, 3, 4}) {
            if (rng.uniform() < 0.2)
                continue; // no task on the core this round
            CoreRoundEvents ev;
            ev.core = core;
            ev.ran = rng.uniform() >= 0.1;
            if (ev.ran) {
                ev.correctedErrors =
                    rng.uniform() < p
                        ? static_cast<uint64_t>(rng.uniformInt(1, 3))
                        : 0;
                ev.uncorrectedErrors = rng.uniform() < p / 3 ? 1 : 0;
                ev.sdc = rng.uniform() < p / 3;
                ev.crashed = rng.uniform() < p / 6;
            }
            round.events.push_back(ev);
        }
    }
    return stream;
}

/** Serve round @p round of a stream on @p sup as the daemon does:
 *  plan (and re-plan after an escalation), run, observe. */
RoundPlan
serve(MarginSupervisor &sup, const StreamRound &draw, int round,
      DaemonRoundRecord &record)
{
    RoundPlan plan = sup.planRound();
    if (draw.escalate) {
        sup.escalate(draw.reason);
        plan = sup.planRound();
    }
    record = DaemonRoundRecord{};
    record.round = round;
    record.guardSteps = plan.guardSteps;
    record.canaryProbe = plan.canary;
    record.safePinned = !plan.undervolt;
    record.nominalFallback = draw.fallback;
    for (const CoreRoundEvents &ev : draw.events) {
        record.anyAbnormal = record.anyAbnormal ||
                             ev.correctedErrors > 0 ||
                             ev.uncorrectedErrors > 0 || ev.sdc;
        record.crashed = record.crashed || ev.crashed;
    }
    sup.observeRound(record, draw.events);
    return plan;
}

/**
 * Serve one random stream uninterrupted, journaling every round and
 * its checkpoint; then, for every k, restore a fresh supervisor from
 * the k-th checkpoint as replayed from the reopened journal and
 * finish the stream. Every later plan and the final posture must
 * equal the uninterrupted run's. Returns the final posture.
 */
SupervisorPosture
checkResumeFromEveryRound(Seed seed, int rounds,
                          const std::string &path)
{
    const std::vector<StreamRound> stream = randomStream(seed, rounds);
    MarginSupervisor uninterrupted;
    for (const CoreId core : kStreamCores)
        uninterrupted.track(core);
    std::vector<RoundPlan> plans;
    std::vector<SupervisorPosture> postures;
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "test");
        ledger.open("supervisor-oracle");
        for (int round = 0; round < rounds; ++round) {
            DaemonRoundRecord record;
            plans.push_back(serve(uninterrupted,
                                  stream[static_cast<size_t>(round)],
                                  round, record));
            postures.push_back(uninterrupted.posture());
            SupervisorCheckpoint ck;
            uninterrupted.checkpoint(ck);
            ck.roundsCompleted = static_cast<uint32_t>(round + 1);
            ledger.appendDaemonRound(record, ck);
        }
    }
    RunLedger reopened(path, "test");
    reopened.open("supervisor-oracle");
    std::remove(path.c_str());
    EXPECT_EQ(reopened.daemonRounds().size(),
              static_cast<size_t>(rounds));
    for (size_t k = 1; k <= reopened.daemonRounds().size(); ++k) {
        MarginSupervisor resumed;
        for (const CoreId core : kStreamCores)
            resumed.track(core);
        resumed.restore(reopened.daemonRounds()[k - 1].state);
        EXPECT_EQ(resumed.posture(), postures[k - 1])
            << "seed " << seed << ": checkpoint " << k
            << " did not survive the journal";
        for (int round = static_cast<int>(k); round < rounds;
             ++round) {
            DaemonRoundRecord record;
            const RoundPlan plan =
                serve(resumed, stream[static_cast<size_t>(round)],
                      round, record);
            if (plan != plans[static_cast<size_t>(round)]) {
                ADD_FAILURE() << "seed " << seed << ": resumed after "
                              << k << " rounds, round " << round
                              << " planned differently";
                break;
            }
        }
        EXPECT_EQ(resumed.posture(), uninterrupted.posture())
            << "seed " << seed << ": resumed after " << k
            << " rounds";
    }
    return uninterrupted.posture();
}

TEST(Supervisor, RandomStreamsResumeExactlyFromEveryCheckpoint)
{
    const std::string path = "/tmp/vmargin_supervisor_oracle";
    SupervisorPosture totals;
    int clamped = 0;
    // Every quarantine prints a warning; thousands of resumes would
    // flood the log.
    ::testing::internal::CaptureStderr();
    for (Seed seed = 1; seed <= 64; ++seed) {
        const SupervisorPosture end =
            checkResumeFromEveryRound(seed, 48, path);
        totals.quarantines += end.quarantines;
        totals.readmissions += end.readmissions;
        totals.canaryFailures += end.canaryFailures;
        totals.narrowEvents += end.narrowEvents;
        totals.pinnedRounds += end.pinnedRounds;
        clamped += end.clampReason != ClampReason::None ? 1 : 0;
    }
    (void)::testing::internal::GetCapturedStderr();
    // The streams reach every branch of the posture: quarantine,
    // passed and failed canaries, narrowing, pinning and the clamp
    // (though not in every stream).
    EXPECT_GT(totals.quarantines, 0u);
    EXPECT_GT(totals.readmissions, 0u);
    EXPECT_GT(totals.canaryFailures, 0u);
    EXPECT_GT(totals.narrowEvents, 0u);
    EXPECT_GT(totals.pinnedRounds, 0u);
    EXPECT_GT(clamped, 0);
    EXPECT_LT(clamped, 64);
}

TEST(SupervisorDeath, OptionsValidateCarriesTheValue)
{
    SupervisorOptions alpha;
    alpha.ewmaAlpha = 0.0;
    EXPECT_EXIT(MarginSupervisor{alpha},
                ::testing::ExitedWithCode(1),
                "ewmaAlpha must be in \\(0, 1\\] \\(got 0.0");
    SupervisorOptions guard;
    guard.maxGuardSteps = 0;
    EXPECT_EXIT(MarginSupervisor{guard},
                ::testing::ExitedWithCode(1),
                "maxGuardSteps must be >= 1 \\(got 0\\)");
    SupervisorOptions score;
    score.quarantineScore = -1.5;
    EXPECT_EXIT(MarginSupervisor{score},
                ::testing::ExitedWithCode(1),
                "quarantineScore must be positive \\(got -1.5");
    SupervisorOptions weights;
    weights.sdcWeight = -2.0;
    EXPECT_EXIT(MarginSupervisor{weights},
                ::testing::ExitedWithCode(1),
                "event weights must be >= 0");
    SupervisorOptions storm;
    storm.crashClampCount = 0;
    EXPECT_EXIT(MarginSupervisor{storm},
                ::testing::ExitedWithCode(1),
                "crashClampCount must be >= 1 \\(got 0\\)");
}

TEST(SupervisorDeath, RestoreRefusesAGuardPastTheMaximum)
{
    // The decoder cannot see the options; restore() can.
    SupervisorOptions options;
    options.maxGuardSteps = 4;
    SupervisorCheckpoint state;
    state.supervisor.guardSteps = 5;
    state.supervisor.peakGuardSteps = 5;
    EXPECT_EXIT(MarginSupervisor(options).restore(state),
                ::testing::ExitedWithCode(1),
                "checkpoint guard 5 steps exceeds maxGuardSteps 4");
    state.supervisor.guardSteps = 4; // at the maximum: restored
    MarginSupervisor supervisor(options);
    supervisor.restore(state);
    EXPECT_EQ(supervisor.posture().guardSteps, 4);
}

// ---- daemon-level robustness -------------------------------------

/**
 * The management-plane fault mix of the integration determinism
 * tests: NAKed writes, stale sensor reads, SLIMpro hangs and missed
 * watchdog polls.
 */
sim::FaultPlanConfig
hostilePlan()
{
    sim::FaultPlanConfig plan;
    plan.i2cWriteFailure = 0.10;
    plan.staleRead = 0.05;
    plan.managementHang = 0.002;
    plan.watchdogMiss = 0.05;
    plan.seed = 99;
    return plan;
}

class SupervisedDaemonTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        sim::Platform clean(sim::XGene2Params{},
                            sim::ChipCorner::TTT, 1);
        CharacterizationFramework framework(&clean);
        report_ = new CharacterizationReport(
            framework.characterize(characterizationConfig()));
        Profiler profiler(&clean);
        profiles_ = new std::vector<WorkloadCounters>(
            profiler.profileSuite(wl::headlineSuite(), 0, 8));
    }

    static void
    TearDownTestSuite()
    {
        delete profiles_;
        delete report_;
        profiles_ = nullptr;
        report_ = nullptr;
    }

    static FrameworkConfig
    characterizationConfig()
    {
        FrameworkConfig config;
        config.workloads = wl::headlineSuite();
        config.cores = {0, 4};
        config.campaigns = 6;
        config.maxEpochs = 8;
        config.startVoltage = 930;
        config.endVoltage = 840;
        return config;
    }

    static VoltageGovernor
    governorFrom(const CharacterizationReport &report,
                 double tolerance, int guard_steps)
    {
        GovernorConfig config;
        config.severityTolerance = tolerance;
        config.guardSteps = guard_steps;
        VoltageGovernor governor(config);
        for (CoreId core : {0, 4}) {
            const auto dataset =
                buildSeverityDataset(*profiles_, report, core);
            LinearPredictor predictor;
            predictor.fit(dataset.x, dataset.y, 5, 8);
            governor.setPredictor(core, std::move(predictor));
        }
        return governor;
    }

    /**
     * One daemon session on a fresh faulted platform. An empty
     * @p journal runs without persistence; @p budget > 0 simulates
     * a mid-session kill after that many fresh rounds; a non-empty
     * @p telemetry streams JSONL snapshots there.
     */
    static DaemonResult
    runSession(double tolerance, int rounds, Seed seed,
               const std::string &journal, int budget,
               bool supervise = true, bool reexecute = true,
               int flush_every = 1, const std::string &telemetry = "")
    {
        sim::Platform platform(sim::XGene2Params{},
                               sim::ChipCorner::TTT, 1);
        platform.installFaultPlan(hostilePlan());
        GovernorDaemon daemon(&platform,
                              governorFrom(*report_, tolerance, 0));
        for (const auto &profile : *profiles_)
            daemon.registerProfile(profile);
        DaemonOptions options;
        options.maxEpochs = 8;
        options.reexecuteOnSdc = reexecute;
        options.supervise = supervise;
        options.journalPath = journal;
        options.roundBudget = budget;
        options.flushEveryRounds = flush_every;
        options.telemetryPath = telemetry;
        return daemon.run({{"bwaves/ref", 0}, {"namd/ref", 4}},
                          rounds, seed, options);
    }

    static CharacterizationReport *report_;
    static std::vector<WorkloadCounters> *profiles_;
};

CharacterizationReport *SupervisedDaemonTest::report_ = nullptr;
std::vector<WorkloadCounters> *SupervisedDaemonTest::profiles_ =
    nullptr;

TEST_F(SupervisedDaemonTest, KillAndResumeReproducesReportBytes)
{
    const std::string journal = "/tmp/vmargin_supervisor_resume";
    std::remove(journal.c_str());

    // The ground truth: one uninterrupted supervised session.
    const DaemonResult uninterrupted =
        runSession(6.0, 12, 11, "", 0);
    ASSERT_TRUE(uninterrupted.complete);
    ASSERT_EQ(uninterrupted.rounds.size(), 12u);

    // Kill after 5 rounds, then resume on a brand-new platform and
    // daemon: the journal must carry the full posture across.
    const DaemonResult killed = runSession(6.0, 12, 11, journal, 5);
    EXPECT_FALSE(killed.complete);
    EXPECT_EQ(killed.rounds.size(), 5u);
    const DaemonResult resumed = runSession(6.0, 12, 11, journal, 0);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.replayedRounds, 5u);
    ASSERT_EQ(resumed.rounds.size(), 12u);

    EXPECT_EQ(formatDaemonReport(resumed),
              formatDaemonReport(uninterrupted))
        << "a resumed session must reproduce the uninterrupted "
           "report byte for byte";
    std::remove(journal.c_str());
}

TEST_F(SupervisedDaemonTest, BatchedJournalKillResumesByteExact)
{
    const std::string journal = "/tmp/vmargin_supervisor_batched";
    std::remove(journal.c_str());

    const DaemonResult uninterrupted =
        runSession(6.0, 12, 31, "", 0);
    ASSERT_TRUE(uninterrupted.complete);

    // Grouped commits: the journal flushes once per four rounds.
    // run() drains the batch before returning, so the budgeted kill
    // alone loses nothing; the mid-frame truncation below is the
    // batch torn by a harder kill.
    const DaemonResult killed =
        runSession(6.0, 12, 31, journal, 7, true, true, 4);
    EXPECT_FALSE(killed.complete);
    EXPECT_EQ(killed.rounds.size(), 7u);
    const auto size = std::filesystem::file_size(journal);
    std::filesystem::resize_file(journal, size - 13);

    const DaemonResult resumed =
        runSession(6.0, 12, 31, journal, 0, true, true, 4);
    EXPECT_TRUE(resumed.complete);
    EXPECT_LT(resumed.replayedRounds, 7u)
        << "the torn tail round must be re-served, not replayed";
    EXPECT_EQ(formatDaemonReport(resumed),
              formatDaemonReport(uninterrupted))
        << "a batched journal resumed after a torn kill must "
           "reproduce the uninterrupted report byte for byte";
    std::remove(journal.c_str());
}

TEST_F(SupervisedDaemonTest, TruncatedJournalTailIsReRunExactly)
{
    const std::string journal = "/tmp/vmargin_supervisor_trunc";
    std::remove(journal.c_str());

    const DaemonResult uninterrupted =
        runSession(6.0, 10, 23, "", 0);
    const DaemonResult journaled =
        runSession(6.0, 10, 23, journal, 0);
    ASSERT_EQ(formatDaemonReport(journaled),
              formatDaemonReport(uninterrupted));

    // Chop into the last checkpoint frame — the poisoned tail must
    // be discarded and the missing rounds re-served identically.
    const auto size = std::filesystem::file_size(journal);
    std::filesystem::resize_file(journal, size - 9);
    const DaemonResult resumed = runSession(6.0, 10, 23, journal, 0);
    EXPECT_LT(resumed.replayedRounds, 10u);
    EXPECT_EQ(formatDaemonReport(resumed),
              formatDaemonReport(uninterrupted));
    std::remove(journal.c_str());
}

TEST_F(SupervisedDaemonTest, SupervisionCutsCrashesAtPositiveSavings)
{
    // A grossly over-tolerant governor on a hostile management
    // plane: unsupervised it keeps driving into the crash region
    // round after round; supervised, the widened guard, quarantine
    // and crash-storm clamp must cut the crash count while still
    // beating all-nominal energy.
    // Re-execution is off so the energy number measures the margin
    // itself, not the section 4.4 recovery cost.
    const DaemonResult unsupervised =
        runSession(17.0, 12, 11, "", 0, false, false);
    const DaemonResult supervised =
        runSession(17.0, 12, 11, "", 0, true, false);

    ASSERT_GT(unsupervised.crashes, 1u)
        << "tolerance 17 must crash repeatedly for this test";
    EXPECT_LT(supervised.crashes, unsupervised.crashes);
    EXPECT_GE(supervised.energySavingsPercent, 0.0);
    EXPECT_TRUE(supervised.supervisorEnabled);
    EXPECT_GT(supervised.supervisor.backoffEvents, 0u);
}

TEST_F(SupervisedDaemonTest, WorkerCountNeverChangesTheOutcome)
{
    // The whole pipeline — characterize under faults, train, run
    // the supervised daemon under faults — must be a pure function
    // of the seed: byte-identical for 1, 2 and 8 workers.
    std::string baseline;
    for (const int workers : {1, 2, 8}) {
        sim::Platform platform(sim::XGene2Params{},
                               sim::ChipCorner::TTT, 1);
        platform.installFaultPlan(hostilePlan());
        CharacterizationFramework framework(&platform);
        FrameworkConfig config = characterizationConfig();
        config.workers = workers;
        const CharacterizationReport report =
            framework.characterize(config);

        sim::Platform daemon_platform(sim::XGene2Params{},
                                      sim::ChipCorner::TTT, 1);
        daemon_platform.installFaultPlan(hostilePlan());
        GovernorDaemon daemon(&daemon_platform,
                              governorFrom(report, 6.0, 0));
        for (const auto &profile : *profiles_)
            daemon.registerProfile(profile);
        DaemonOptions options;
        options.maxEpochs = 8;
        options.reexecuteOnSdc = true;
        options.supervise = true;
        const DaemonResult result =
            daemon.run({{"bwaves/ref", 0}, {"namd/ref", 4}}, 8, 31,
                       options);
        const std::string rendered = formatDaemonReport(result);
        if (baseline.empty())
            baseline = rendered;
        else
            EXPECT_EQ(rendered, baseline)
                << "workers=" << workers
                << " diverged from workers=1";
    }
}

/** Hex hash of the canonical daemon report. */
std::string
reportHash(const DaemonResult &result)
{
    std::ostringstream os;
    os << std::hex << util::hashSeed(formatDaemonReport(result));
    return os.str();
}

TEST_F(SupervisedDaemonTest, SoakReportHashIsPinned)
{
    // 24 supervised rounds under the hostile plan, no re-execution:
    // the report must hash to one literal on a first run, on a
    // repeat and with a journal (persistence is invisible). The
    // unsupervised control run is pinned alongside.
    const std::string journal = "/tmp/vmargin_supervisor_soak_golden";
    std::remove(journal.c_str());
    const char *const supervised = "80ced1edda7dcdc2";
    EXPECT_EQ(reportHash(runSession(6.0, 24, 11, "", 0, true, false)),
              supervised);
    EXPECT_EQ(reportHash(runSession(6.0, 24, 11, "", 0, true, false)),
              supervised)
        << "the supervised soak is not deterministic on a repeat";
    EXPECT_EQ(
        reportHash(runSession(6.0, 24, 11, journal, 0, true, false)),
        supervised)
        << "journaling changed the supervised report";
    std::remove(journal.c_str());
    EXPECT_EQ(reportHash(runSession(6.0, 24, 11, "", 0, false, false)),
              "93e25c898547c26a");
}

TEST_F(SupervisedDaemonTest, TelemetrySinkIsOutOfBandAndCarriesTheKeys)
{
    const std::string path = "/tmp/vmargin_supervisor_telemetry.jsonl";
    std::remove(path.c_str());
    obs::Registry::global().reset();
    const DaemonResult result =
        runSession(6.0, 24, 11, "", 0, true, false, 1, path);
    EXPECT_EQ(reportHash(result), "80ced1edda7dcdc2")
        << "the telemetry sink moved daemon report bytes";

    std::ifstream in(path);
    std::string last;
    for (std::string line; std::getline(in, line);)
        last = line;
    std::remove(path.c_str());
    ASSERT_FALSE(last.empty()) << "no snapshot written to " << path;
    for (const char *key :
         {"\"schema\":\"vmargin-telemetry-v1\"",
          "\"daemon.rounds_served\":24",
          "\"supervisor.quarantine_entries\":",
          "\"supervisor.backoffs\":", "\"daemon.round\":{"})
        EXPECT_NE(last.find(key), std::string::npos)
            << "final snapshot lacks " << key << ": " << last;
}

} // namespace
} // namespace vmargin::sched
