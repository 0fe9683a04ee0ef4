/**
 * @file
 * daemon_soak: GovernorDaemon::run, supervised and journaled (one
 * flushed checkpoint per round), under a hostile management plane —
 * the paper's online daemon. One op is one served round; a batch is
 * one fresh session on a fresh machine.
 *
 * The traced run times the session's set-up, the daemon.run call (its
 * rounds come from the library's own daemon.round span) and report
 * formatting. The governor, supervisor and journal costs inside a
 * round are priced by replaying their public calls over the
 * session's observations and served rounds, and subtracted from the
 * round time to give the daemon's own share.
 */

#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>

#include "bench.hh"
#include "core/framework.hh"
#include "core/predictor.hh"
#include "core/profiler.hh"
#include "core/resultstore.hh"
#include "obs/metrics.hh"
#include "sched/daemon.hh"
#include "util/rng.hh"
#include "workloads/spec.hh"

namespace vmbench
{

using namespace vmargin;

namespace
{

/** Rounds per session (smoke: fewer). */
int
roundsPerSession(const Options &options)
{
    return options.smoke ? 24 : 400;
}

/** supervisor_soak's hostile management plane. */
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

const std::vector<Placement> kPlacements = {{"bwaves/ref", 0},
                                            {"namd/ref", 4}};
const std::vector<CoreId> kCores = {0, 4};

/** The offline training a daemon session is built from. */
struct Trained
{
    CharacterizationReport report;
    std::vector<WorkloadCounters> profiles;
    std::map<CoreId, LinearPredictor> predictors;
    double characterizeSeconds = 0.0;
    double profileSeconds = 0.0;
    double fitSeconds = 0.0;
};

Trained
train(uint32_t serial, bool smoke)
{
    Trained trained;
    sim::Platform clean(sim::XGene2Params{}, sim::ChipCorner::TTT,
                        serial);
    Clock::time_point begin = Clock::now();
    FrameworkConfig config;
    config.workloads = wl::headlineSuite();
    config.cores = kCores;
    config.campaigns = smoke ? 2 : 6;
    config.maxEpochs = 8;
    config.startVoltage = 930;
    config.endVoltage = 840;
    config.workers = 1;
    CharacterizationFramework framework(&clean);
    trained.report = framework.characterize(config);
    trained.characterizeSeconds = secondsBetween(begin, Clock::now());

    begin = Clock::now();
    Profiler profiler(&clean);
    trained.profiles = profiler.profileSuite(wl::headlineSuite(), 0, 8);
    trained.profileSeconds = secondsBetween(begin, Clock::now());

    begin = Clock::now();
    for (const CoreId core : kCores) {
        const auto dataset = buildSeverityDataset(
            trained.profiles, trained.report, core);
        LinearPredictor predictor;
        predictor.fit(dataset.x, dataset.y, 5, 8);
        trained.predictors.emplace(core, std::move(predictor));
    }
    trained.fitSeconds = secondsBetween(begin, Clock::now());
    return trained;
}

sched::GovernorConfig
governorConfig()
{
    sched::GovernorConfig config;
    config.severityTolerance = 6.0;
    config.guardSteps = 0;
    return config;
}

sched::VoltageGovernor
makeGovernor(const Trained &trained)
{
    sched::VoltageGovernor governor(governorConfig());
    for (const auto &[core, predictor] : trained.predictors)
        governor.setPredictor(core, predictor);
    return governor;
}

sched::DaemonOptions
daemonOptions(const std::string &journal)
{
    sched::DaemonOptions options;
    options.maxEpochs = 8;
    options.supervise = true;
    options.journalPath = journal;
    return options;
}

/** A daemon session ready to run on a fresh, fault-injected machine. */
struct Session
{
    std::unique_ptr<sim::Platform> platform;
    std::optional<sched::GovernorDaemon> daemon;

    Session(const Trained &trained, uint32_t serial,
            const std::string &journal)
    {
        std::remove(journal.c_str());
        platform = std::make_unique<sim::Platform>(
            sim::XGene2Params{}, sim::ChipCorner::TTT, serial);
        platform->installFaultPlan(hostilePlan());
        daemon.emplace(platform.get(), makeGovernor(trained));
        for (const auto &profile : trained.profiles)
            daemon->registerProfile(profile);
    }
};

/** The observations the daemon feeds the governor each round. */
std::vector<sched::CoreObservation>
observationsFor(const Trained &trained)
{
    std::vector<sched::CoreObservation> observations;
    for (const Placement &placement : kPlacements)
        for (const auto &profile : trained.profiles)
            if (profile.workloadId == placement.workloadId) {
                sched::CoreObservation observation;
                observation.core = placement.core;
                for (size_t e = 0; e < sim::kNumPmuEvents; ++e)
                    observation.counterFeatures.push_back(
                        profile.perKilo(static_cast<sim::PmuEvent>(e)));
                observations.push_back(std::move(observation));
            }
    return observations;
}

/** Seconds per round of the in-round layers, priced by replay. */
struct RoundReplay
{
    double governor = 0.0;
    double supervisor = 0.0;
    double journal = 0.0;
};

RoundReplay
replayRounds(const Trained &trained, const sched::DaemonResult &result,
             const std::string &scratch)
{
    RoundReplay replay;
    const double rounds = static_cast<double>(result.rounds.size());

    // Governor: decide() over the fixed observations, once per round
    // the daemon undervolted.
    const sched::VoltageGovernor governor = makeGovernor(trained);
    const auto observations = observationsFor(trained);
    Clock::time_point begin = Clock::now();
    for (const auto &round : result.rounds)
        if (!round.safePinned)
            (void)governor.decide(observations);
    replay.governor = secondsBetween(begin, Clock::now()) / rounds;

    // Supervisor: plan, observe and checkpoint each served round.
    std::vector<SupervisorCheckpoint> checkpoints;
    checkpoints.reserve(result.rounds.size());
    begin = Clock::now();
    {
        sched::MarginSupervisor supervisor(
            daemonOptions("").supervisor);
        for (const CoreId core : kCores)
            supervisor.track(core);
        for (const auto &round : result.rounds) {
            (void)supervisor.planRound();
            std::vector<sched::CoreRoundEvents> events;
            for (const CoreId core : kCores) {
                sched::CoreRoundEvents ev;
                ev.core = core;
                ev.ran = true;
                ev.crashed = round.crashed;
                events.push_back(ev);
            }
            supervisor.observeRound(round, events);
            checkpoints.emplace_back();
            supervisor.checkpoint(checkpoints.back());
        }
    }
    replay.supervisor = secondsBetween(begin, Clock::now()) / rounds;

    // Journal: each round plus its checkpoint, flushed per round.
    std::remove(scratch.c_str());
    begin = Clock::now();
    {
        DaemonJournal journal(scratch);
        journal.open("vmbench daemon append replay");
        for (size_t i = 0; i < result.rounds.size(); ++i) {
            checkpoints[i].roundsCompleted =
                static_cast<uint32_t>(i + 1);
            journal.append(result.rounds[i], checkpoints[i]);
        }
        journal.flush();
    }
    replay.journal = secondsBetween(begin, Clock::now()) / rounds;
    std::remove(scratch.c_str());
    return replay;
}

} // namespace

RunResult
runDaemonSoak(const Options &options)
{
    const uint32_t serial = serialFor(options.seed);
    const int rounds = roundsPerSession(options);
    std::filesystem::create_directories(options.workdir);
    const std::string journal = options.workdir + "/daemon_soak.journal";

    // Set-up, repeated: the training characterization, counter
    // profiling and predictor fits.
    std::vector<double> setups;
    std::vector<double> characterize_s;
    std::vector<double> profile_s;
    std::vector<double> fit_s;
    std::optional<Trained> trained;
    for (int i = 0; i < setupRepeats(options); ++i) {
        const Clock::time_point begin = Clock::now();
        trained.emplace(train(serial, options.smoke));
        setups.push_back(secondsBetween(begin, Clock::now()));
        characterize_s.push_back(trained->characterizeSeconds);
        profile_s.push_back(trained->profileSeconds);
        fit_s.push_back(trained->fitSeconds);
    }

    OutputCheck check(options.expectHash, 1);
    const auto session = [&](size_t) {
        Session s(*trained, serial, journal);
        const sched::DaemonResult result = s.daemon->run(
            kPlacements, rounds, options.seed, daemonOptions(journal));
        check.record(0, result.rounds.size(),
                     hexHash(util::hashSeed(
                         sched::formatDaemonReport(result))));
        Batch batch;
        batch.ops = result.rounds.size();
        return batch;
    };
    const std::vector<Batch> batches = closedLoop(
        options.trace ? options.seconds / 2 : options.seconds, kMinBatches,
        session);

    RunResult result;
    if (!options.trace) {
        result.metrics = {
            {"ops_per_s", bestRate(batches), "1/s"},
            {"setup_s", median(setups), "s"},
            {"peak_rss_mb", peakRssMb(), "MiB"},
        };
    } else {
        obs::Registry &reg = obs::Registry::global();
        obs::SpanStat &round_span = reg.span("daemon.round");
        obs::Counter &append_bytes = reg.counter("ledger.append_bytes");
        obs::Counter &flush_batches =
            reg.counter("ledger.flush_batches", obs::Stability::Sched);
        Trace trace;
        std::optional<sched::DaemonResult> first;
        uint64_t first_append_bytes = 0;
        uint64_t first_flushes = 0;
        uint64_t served = 0;
        const std::vector<Batch> traced = closedLoop(
            options.seconds / 2, kMinBatches, [&](size_t) {
                Trace::Scope op(trace, "op");
                std::optional<Session> s;
                {
                    Trace::Scope span(trace, "daemon.session");
                    s.emplace(*trained, serial, journal);
                }
                const uint64_t round_ns = round_span.totalNs();
                const uint64_t bytes = append_bytes.value();
                const uint64_t flushes = flush_batches.value();
                std::optional<sched::DaemonResult> served_session;
                {
                    Trace::Scope span(trace, "daemon.run");
                    served_session.emplace(s->daemon->run(
                        kPlacements, rounds, options.seed,
                        daemonOptions(journal)));
                    trace.addChild("daemon.round",
                                   round_span.totalNs() - round_ns);
                }
                std::string report;
                {
                    Trace::Scope span(trace, "core.emit");
                    report = sched::formatDaemonReport(*served_session);
                }
                check.record(0, served_session->rounds.size(),
                             hexHash(util::hashSeed(report)));
                served += served_session->rounds.size();
                if (!first) {
                    first = served_session;
                    first_append_bytes = append_bytes.value() - bytes;
                    first_flushes = flush_batches.value() - flushes;
                }
                {
                    Trace::Scope span(trace, "daemon.session");
                    s.reset();
                }
                Batch batch;
                batch.ops = served_session->rounds.size();
                return batch;
            });
        trace.printShares();
        trace.writeJsonl(options.workdir + "/daemon_soak.trace.jsonl");

        const RoundReplay replay = replayRounds(
            *trained, *first, options.workdir + "/daemon_replay.journal");
        const double round_us =
            1e6 * trace.totalSeconds("daemon.round") /
            static_cast<double>(served);
        const auto us = [](double seconds) { return 1e6 * seconds; };
        result.metrics = {
            {"ledger.append_bytes",
             static_cast<double>(first_append_bytes), "bytes"},
            {"ledger.flush_batches", static_cast<double>(first_flushes),
             "count"},
            {"core.emit_ms",
             1e3 * trace.selfSeconds("core.emit") /
                 static_cast<double>(traced.size()),
             "ms"},
            {"daemon.round_us", round_us, "us"},
            {"daemon.self_us_per_round",
             round_us - us(replay.governor) - us(replay.supervisor) -
                 us(replay.journal),
             "us"},
            {"sched.governor_us_per_round", us(replay.governor), "us"},
            {"sched.supervisor_us_per_round", us(replay.supervisor),
             "us"},
            {"ledger.daemon_append_us_per_round", us(replay.journal),
             "us"},
            {"daemon.rounds_served",
             static_cast<double>(first->rounds.size()), "count"},
            {"daemon.nominal_fallbacks",
             static_cast<double>(first->fallbackRounds), "count"},
            {"daemon.crashes", static_cast<double>(first->crashes),
             "count"},
            {"supervisor.backoffs",
             static_cast<double>(first->supervisor.backoffEvents),
             "count"},
            {"supervisor.quarantines",
             static_cast<double>(first->supervisor.quarantines),
             "count"},
            {"daemon.energy_savings_pct", first->energySavingsPercent,
             "%"},
            {"setup.characterize_s", median(characterize_s), "s"},
            {"setup.profile_s", median(profile_s), "s"},
            {"stats.fit_ms", 1e3 * median(fit_s), "ms"},
            {"trace.coverage", trace.coverage(), "ratio"},
            {"trace.overhead", bestRate(batches) / bestRate(traced),
             "ratio"},
        };
    }
    result.attempted = check.attempted();
    result.failed = check.failed();
    result.outputHash = check.hash();
    return result;
}

} // namespace vmbench
