#include "daemon.hh"

#include <algorithm>
#include <iomanip>
#include <optional>
#include <sstream>

#include "core/effects.hh"
#include "core/resultstore.hh"
#include "obs/metrics.hh"
#include "obs/sink.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "workloads/spec.hh"

namespace vmargin::sched
{

namespace
{

/** Fault-stream scope of one daemon round: every round draws from
 *  its own sub-stream, so a round's faults are a pure function of
 *  (seed, round) — the property that lets a journal-resumed session
 *  reproduce an uninterrupted one bit for bit. */
Seed
roundFaultScope(Seed seed, uint64_t round)
{
    return util::mixSeed(util::hashSeed("daemon-fault-plan"),
                         util::mixSeed(seed, round));
}

/** Round-trip exact double rendering for the canonical report. */
std::string
fmtF64(double value)
{
    std::ostringstream os;
    os << std::setprecision(17) << value;
    return os.str();
}

/**
 * Header binding a daemon journal to one exact session: chip
 * identity, placements, round count, seed, every option and governor
 * knob that shapes a round, and the fault plan. journalPath and
 * roundBudget are deliberately excluded — where the journal lives
 * and where a session was killed must not prevent resumption.
 */
std::string
daemonJournalHeader(const sim::Platform &platform,
                    const GovernorConfig &governor,
                    const std::vector<Placement> &placements,
                    int rounds, Seed seed,
                    const DaemonOptions &options)
{
    Seed hash = util::hashSeed("vmargin-daemon-journal");
    hash = util::mixSeed(hash, static_cast<uint64_t>(rounds));
    hash = util::mixSeed(hash, seed);
    for (const auto &placement : placements) {
        hash = util::mixSeed(hash,
                             util::hashSeed(placement.workloadId));
        hash = util::mixSeed(hash,
                             static_cast<uint64_t>(placement.core));
    }
    hash = util::mixSeed(hash, options.maxEpochs);
    hash = util::mixSeed(hash, options.reexecuteOnSdc ? 1 : 0);
    hash = util::mixSeed(hash,
                         static_cast<uint64_t>(options.safeVoltage));
    hash = util::mixSeed(
        hash, static_cast<uint64_t>(options.retry.attemptsPerOp));
    hash = util::mixSeed(
        hash, static_cast<uint64_t>(options.retry.watchdogPolls));
    hash = util::mixSeed(hash, options.retry.backoffBaseUs);
    hash = util::mixSeed(hash, options.retry.backoffCapUs);
    hash = util::mixSeed(
        hash,
        static_cast<uint64_t>(options.clampAfterAbnormalRounds));
    hash = util::mixSeed(hash,
                         static_cast<uint64_t>(options.clampStepMv));
    hash = util::mixSeed(hash, options.supervise ? 1 : 0);
    if (options.supervise) {
        const SupervisorOptions &sup = options.supervisor;
        hash = util::mixSeed(
            hash, static_cast<uint64_t>(sup.ewmaAlpha * 1e9));
        hash = util::mixSeed(
            hash, static_cast<uint64_t>(sup.ceWeight * 1e9));
        hash = util::mixSeed(
            hash, static_cast<uint64_t>(sup.ueWeight * 1e9));
        hash = util::mixSeed(
            hash, static_cast<uint64_t>(sup.sdcWeight * 1e9));
        hash = util::mixSeed(
            hash, static_cast<uint64_t>(sup.crashWeight * 1e9));
        hash = util::mixSeed(
            hash, static_cast<uint64_t>(sup.quarantineScore * 1e9));
        hash = util::mixSeed(
            hash, static_cast<uint64_t>(sup.backoffGuardSteps));
        hash = util::mixSeed(
            hash, static_cast<uint64_t>(sup.maxGuardSteps));
        hash = util::mixSeed(
            hash, static_cast<uint64_t>(sup.cleanRoundsToNarrow));
        hash = util::mixSeed(
            hash, static_cast<uint64_t>(sup.quarantineHoldRounds));
        hash = util::mixSeed(
            hash, static_cast<uint64_t>(sup.canaryGuardSteps));
        hash = util::mixSeed(
            hash, static_cast<uint64_t>(sup.crashWindowRounds));
        hash = util::mixSeed(
            hash, static_cast<uint64_t>(sup.crashClampCount));
    }
    hash = util::mixSeed(
        hash,
        static_cast<uint64_t>(governor.severityTolerance * 1e9));
    hash = util::mixSeed(hash,
                         static_cast<uint64_t>(governor.guardSteps));
    hash = util::mixSeed(hash,
                         static_cast<uint64_t>(governor.nominal));
    hash = util::mixSeed(hash, static_cast<uint64_t>(governor.floor));
    hash = util::mixSeed(hash, static_cast<uint64_t>(governor.step));
    hash = util::mixSeed(
        hash,
        static_cast<uint64_t>(platform.chip().corner()) << 32 |
            platform.chip().serial());
    if (const sim::FaultPlan *plan = platform.faultPlan()) {
        hash = util::mixSeed(hash, plan->config().seed);
        for (size_t op = 0; op < sim::kNumFaultOps; ++op)
            hash = util::mixSeed(
                hash, static_cast<uint64_t>(
                          plan->config().probability(
                              static_cast<sim::FaultOp>(op)) *
                          1e9));
    }

    std::ostringstream os;
    os << "vmargin-daemon chip=" << platform.chip().name()
       << " corner=" << sim::cornerName(platform.chip().corner())
       << " rounds=" << rounds << " seed=" << seed
       << " config=" << std::hex << hash;
    return os.str();
}

} // namespace

std::string
formatDaemonReport(const DaemonResult &result)
{
    std::ostringstream os;
    os << "daemon-report rounds=" << result.rounds.size()
       << " complete=" << (result.complete ? 1 : 0) << '\n';
    for (const auto &round : result.rounds) {
        os << "round " << round.round << " v=" << round.voltage
           << " guard=" << round.guardSteps
           << " canary=" << (round.canaryProbe ? 1 : 0)
           << " pinned=" << (round.safePinned ? 1 : 0)
           << " fallback=" << (round.nominalFallback ? 1 : 0)
           << " reason="
           << fallbackReasonName(
                  static_cast<FallbackReason>(round.fallbackReason))
           << " abnormal=" << (round.anyAbnormal ? 1 : 0)
           << " crashed=" << (round.crashed ? 1 : 0)
           << " reexec=" << round.reexecutions
           << " energy_j=" << fmtF64(round.energyJoule)
           << " nominal_j=" << fmtF64(round.nominalJoule) << '\n';
    }
    os << "summary avg_mv=" << fmtF64(result.averageVoltage)
       << " savings_pct=" << fmtF64(result.energySavingsPercent)
       << " abnormal=" << result.abnormalRounds
       << " crashes=" << result.crashes
       << " watchdog_resets=" << result.watchdogResets
       << " reexecutions=" << result.reexecutions
       << " fallback=" << result.fallbackRounds
       << " retries_exhausted=" << result.fallbackRetriesExhausted
       << " machine_unresponsive="
       << result.fallbackMachineUnresponsive
       << " clamp_mv=" << result.governorClampMv << '\n';
    os << "telemetry retries=" << result.telemetry.retries
       << " backoff_events=" << result.telemetry.backoffEvents
       << " backoff_us=" << result.telemetry.backoffUsTotal
       << " watchdog_retries=" << result.telemetry.watchdogRetries
       << " lost=" << result.telemetry.lostMeasurements << '\n';
    if (result.supervisorEnabled) {
        os << "supervisor guard=" << result.supervisor.guardSteps
           << " peak=" << result.supervisor.peakGuardSteps
           << " clamp="
           << clampReasonName(result.supervisor.clampReason)
           << " backoffs=" << result.supervisor.backoffEvents
           << " narrows=" << result.supervisor.narrowEvents
           << " quarantines=" << result.supervisor.quarantines
           << " readmissions=" << result.supervisor.readmissions
           << " canary_rounds=" << result.supervisor.canaryRounds
           << " canary_failures="
           << result.supervisor.canaryFailures
           << " pinned_rounds=" << result.supervisor.pinnedRounds
           << " quarantined=[";
        const char *separator = "";
        for (const CoreId core : result.supervisor.quarantinedCores()) {
            os << separator << core;
            separator = " ";
        }
        os << "]\n";
    }
    return os.str();
}

std::string
formatDaemonSummary(const DaemonResult &result)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(2);
    os << "  rounds served      : " << result.rounds.size()
       << (result.complete ? "" : " (incomplete: budget reached)")
       << '\n';
    if (result.replayedRounds > 0)
        os << "  replayed rounds    : " << result.replayedRounds
           << " (journal resume)\n";
    os << "  average voltage    : " << result.averageVoltage
       << " mV\n";
    os << "  energy savings     : " << result.energySavingsPercent
       << " %\n";
    os << "  abnormal rounds    : " << result.abnormalRounds << '\n';
    os << "  crashes            : " << result.crashes << '\n';
    os << "  watchdog resets    : " << result.watchdogResets << '\n';
    os << "  re-executions      : " << result.reexecutions
       << " (sdc recoveries)\n";
    os << "  nominal fallbacks  : " << result.fallbackRounds << " ("
       << fallbackReasonName(FallbackReason::RetriesExhausted) << " "
       << result.fallbackRetriesExhausted << ", "
       << fallbackReasonName(FallbackReason::MachineUnresponsive)
       << " " << result.fallbackMachineUnresponsive << ")\n";
    os << "  governor clamp     : +" << result.governorClampMv
       << " mV\n";
    if (result.supervisorEnabled) {
        os << "  supervisor guard   : "
           << result.supervisor.guardSteps << " steps (peak "
           << result.supervisor.peakGuardSteps << ", backoffs "
           << result.supervisor.backoffEvents << ", narrows "
           << result.supervisor.narrowEvents << ")\n";
        os << "  emergency clamp    : "
           << clampReasonName(result.supervisor.clampReason) << '\n';
        os << "  quarantine         : "
           << result.supervisor.quarantines << " quarantined, "
           << result.supervisor.readmissions << " re-admitted, "
           << result.supervisor.canaryRounds << " canary rounds ("
           << result.supervisor.canaryFailures << " failed), "
           << result.supervisor.pinnedRounds
           << " rounds pinned safe\n";
        const std::vector<CoreId> held =
            result.supervisor.quarantinedCores();
        if (!held.empty()) {
            os << "  still quarantined  :";
            for (const CoreId core : held)
                os << ' ' << core;
            os << '\n';
        }
    }
    return os.str();
}

GovernorDaemon::GovernorDaemon(sim::Platform *platform,
                               VoltageGovernor governor)
    : platform_(platform), governor_(std::move(governor)),
      slimpro_(platform), watchdog_(platform),
      managed_(platform, &slimpro_, &watchdog_)
{
    if (!platform_)
        util::panicf("GovernorDaemon: null platform");
    governor_.config().validate();
}

void
GovernorDaemon::registerProfile(const WorkloadCounters &profile)
{
    profiles_[profile.workloadId] = profile;
}

DaemonResult
GovernorDaemon::run(const std::vector<Placement> &placements,
                    int rounds, Seed seed, uint32_t max_epochs)
{
    DaemonOptions options;
    options.maxEpochs = max_epochs;
    return run(placements, rounds, seed, options);
}

DaemonResult
GovernorDaemon::run(const std::vector<Placement> &placements,
                    int rounds, Seed seed,
                    const DaemonOptions &options)
{
    // rounds is also the divisor of the final averages; reject a
    // zero/negative count before any other work.
    if (rounds < 1)
        util::fatalError("daemon: rounds must be >= 1");
    if (placements.empty())
        util::fatalError("daemon: empty placement");
    for (const auto &placement : placements)
        if (!profiles_.count(placement.workloadId))
            util::fatalError("daemon: no registered profile for '" +
                             placement.workloadId + "'");
    options.retry.validate();
    governor_.config().validate();
    if (options.clampAfterAbnormalRounds < 1)
        util::fatalError(
            "daemon: clampAfterAbnormalRounds must be >= 1");
    if (options.roundBudget < 0)
        util::fatalError("daemon: roundBudget must be >= 0 (got " +
                         std::to_string(options.roundBudget) + ")");
    if (options.flushEveryRounds < 1)
        util::fatalError(
            "daemon: flushEveryRounds must be >= 1 (got " +
            std::to_string(options.flushEveryRounds) + ")");

    managed_.setPolicy(options.retry);

    // Round telemetry. The daemon loop is single-threaded and every
    // round is a pure function of (seed, round), so all of these are
    // exact-class; only the round *duration* is scheduling-bound.
    obs::Registry &reg = obs::Registry::global();
    obs::Counter &statRoundsServed =
        reg.counter("daemon.rounds_served");
    obs::Counter &statRoundsReplayed =
        reg.counter("daemon.rounds_replayed");
    obs::Counter &statFallbacks =
        reg.counter("daemon.nominal_fallbacks");
    obs::Counter &statReexecutions =
        reg.counter("daemon.reexecutions");
    obs::SpanStat &statRoundSpan = reg.span("daemon.round");
    std::unique_ptr<obs::TelemetrySink> sink;
    if (!options.telemetryPath.empty())
        sink = std::make_unique<obs::TelemetrySink>(
            options.telemetryPath);

    std::optional<MarginSupervisor> supervisor;
    if (options.supervise) {
        supervisor.emplace(options.supervisor);
        for (const auto &placement : placements)
            supervisor->track(placement.core);
    }

    // Observations are fixed per placement (profiles collected at
    // nominal conditions, like the paper's offline profiling).
    std::vector<CoreObservation> observations;
    for (const auto &placement : placements) {
        CoreObservation obs;
        obs.core = placement.core;
        const WorkloadCounters &profile =
            profiles_.at(placement.workloadId);
        for (size_t e = 0; e < sim::kNumPmuEvents; ++e)
            obs.counterFeatures.push_back(profile.perKilo(
                static_cast<sim::PmuEvent>(e)));
        observations.push_back(std::move(obs));
    }

    // Each placement's workload profile, resolved once per session
    // rather than per placement per round.
    std::vector<wl::WorkloadProfile> workloads;
    workloads.reserve(placements.size());
    for (const auto &placement : placements)
        workloads.push_back(wl::findWorkload(placement.workloadId));

    const power::EnergyAccountant accountant(
        power::PowerModel{}, platform_->chip().variation(), 950);

    DaemonResult result;
    const uint64_t resets_before = watchdog_.interventions();
    const RecoveryTelemetry telemetry_before = managed_.telemetry();
    MilliVolt clamp = 0;
    int consecutive_abnormal = 0;
    int start_round = 0;
    // Cumulative counters carried over from journaled sessions; the
    // final result reports journal-cumulative totals, so a resumed
    // session's report equals the uninterrupted one's.
    uint64_t base_resets = 0;
    RecoveryTelemetry base_telemetry;

    std::optional<DaemonJournal> journal;
    if (!options.journalPath.empty()) {
        LedgerWriteOptions write_options;
        write_options.flushEveryCells = options.flushEveryRounds;
        journal.emplace(options.journalPath, write_options);
        journal->open(daemonJournalHeader(*platform_,
                                          governor_.config(),
                                          placements, rounds, seed,
                                          options));
        for (const auto &entry : journal->rounds())
            result.rounds.push_back(entry.round);
        if (!journal->rounds().empty()) {
            // Resume: replay the committed rounds verbatim and
            // restore the last checkpoint's complete posture — the
            // supervisor's learned state plus every piece of daemon
            // and platform state a future round's outcome depends
            // on (legacy clamp, stale-sensor cache, machine
            // responsiveness, cumulative counters).
            const SupervisorCheckpoint &ck =
                journal->rounds().back().state;
            start_round = static_cast<int>(ck.roundsCompleted);
            clamp = ck.legacyClampMv;
            consecutive_abnormal =
                static_cast<int>(ck.legacyStreak);
            base_resets = ck.watchdogResets;
            base_telemetry = ck.telemetry;
            sim::SlimPro::SensorCache cache;
            cache.hasTemperature = ck.hasSensorSample;
            cache.temperature = ck.sensorSample;
            slimpro_.restoreSensorCache(cache);
            if (supervisor)
                supervisor->restore(ck);
            if (!ck.machineResponsive)
                platform_->powerOff();
            else if (!platform_->responsive())
                platform_->powerCycle();
            result.replayedRounds = journal->rounds().size();
            statRoundsReplayed.inc(result.replayedRounds);
        }
    }

    sim::FaultPlan *plan = platform_->faultPlan();
    int fresh_served = 0;

    for (int round = start_round; round < rounds; ++round) {
        if (options.roundBudget > 0 &&
            fresh_served >= options.roundBudget) {
            // Simulated kill: stop mid-session. Every served round
            // is already committed to the journal, so the next
            // session continues from exactly here.
            result.complete = false;
            break;
        }
        ++fresh_served;
        statRoundsServed.inc();
        obs::ScopedSpan roundSpan(statRoundSpan);

        // Every round draws faults from its own (seed, round)
        // sub-stream — see roundFaultScope.
        if (plan)
            plan->scopeTo(roundFaultScope(
                seed, static_cast<uint64_t>(round)));

        RoundPlan rp;
        if (supervisor)
            rp = supervisor->planRound();

        const bool alive = managed_.revive(
            rp.canary ? sim::WatchdogContext::CanaryProbe
                      : sim::WatchdogContext::DaemonRoundStart);
        if (!alive && supervisor) {
            // The whole watchdog poll budget passed without a
            // successful power cycle: the machine is beyond this
            // session's recovery means. Clamp and re-plan.
            supervisor->escalate(ClampReason::WatchdogExhausted);
            rp = supervisor->planRound();
        }

        // Canonical round-start state: with per-round fault scoping
        // above, this makes the round a pure function of
        // (seed, round) — see Platform::settleForRound.
        platform_->settleForRound();

        RoundRecord record;
        record.round = round;
        record.guardSteps = rp.guardSteps;
        record.canaryProbe = rp.canary;
        record.safePinned = !rp.undervolt;

        MilliVolt target = options.safeVoltage;
        if (rp.undervolt) {
            const MilliVolt decision = governor_.decide(observations);
            target = std::min(
                options.safeVoltage,
                static_cast<MilliVolt>(
                    decision + clamp +
                    rp.guardSteps * governor_.config().step));
        }
        record.voltage = target;
        if (!managed_.setPmdVoltage(target)) {
            // Retry budget exhausted: degrade instead of dying —
            // serve this round at the safe voltage (a power cycle
            // inside the retries already reset to nominal; try the
            // explicit setpoint anyway for the clean-failure case).
            managed_.setPmdVoltage(options.safeVoltage);
            record.voltage = options.safeVoltage;
            record.nominalFallback = true;
            record.fallbackReason = static_cast<uint8_t>(
                platform_->responsive()
                    ? FallbackReason::RetriesExhausted
                    : FallbackReason::MachineUnresponsive);
            statFallbacks.inc();
        }

        std::vector<CoreRoundEvents> events;
        events.reserve(placements.size());
        for (size_t task = 0; task < placements.size(); ++task) {
            const Placement &placement = placements[task];
            const wl::WorkloadProfile &workload = workloads[task];
            CoreRoundEvents ev;
            ev.core = placement.core;
            if (!platform_->responsive()) {
                // An earlier task of this round took the machine
                // down; the remaining tasks simply did not run.
                events.push_back(ev);
                continue;
            }
            ev.ran = true;
            sim::ExecutionConfig exec;
            exec.maxEpochs = options.maxEpochs;
            const Seed run_seed = util::mixSeed(
                util::mixSeed(seed,
                              static_cast<uint64_t>(round)),
                static_cast<uint64_t>(placement.core));
            const sim::RunResult run = platform_->runWorkload(
                placement.core, workload, run_seed, exec);

            // Read through the SLIMpro sensor path (a stale read
            // fault returns the previous sample, like real I2C).
            const Celsius temp = slimpro_.readTemperature();
            record.energyJoule +=
                accountant.runEnergy(placement.core, run, temp)
                    .total();
            record.nominalJoule +=
                accountant
                    .scaledEnergy(placement.core, run, 980,
                                  run.frequency, temp)
                    .total();
            record.anyAbnormal =
                record.anyAbnormal || run.abnormal();
            record.crashed = record.crashed || run.systemCrashed;
            ev.correctedErrors = run.correctedErrors;
            ev.uncorrectedErrors = run.uncorrectedErrors;
            ev.sdc = run.completed && !run.outputMatches;
            ev.crashed =
                run.systemCrashed || run.applicationCrashed;
            events.push_back(ev);

            // Section 4.4 recovery: an output mismatch triggers
            // re-execution at the safe voltage; correctness is
            // preserved at the price of the recovery energy.
            if (options.reexecuteOnSdc && run.completed &&
                !run.outputMatches && platform_->responsive()) {
                managed_.setPmdVoltage(options.safeVoltage);
                const sim::RunResult redo = platform_->runWorkload(
                    placement.core, workload,
                    util::mixSeed(run_seed, 0x5AFEULL), exec);
                record.energyJoule +=
                    accountant
                        .runEnergy(placement.core, redo, temp)
                        .total();
                ++record.reexecutions;
                statReexecutions.inc();
                // Back to the round's operating point for the
                // remaining tasks.
                if (platform_->responsive())
                    managed_.setPmdVoltage(record.voltage);
            }
        }

        // Safe data collection: back to nominal between rounds.
        if (platform_->responsive())
            managed_.setPmdVoltage(options.safeVoltage);

        if (supervisor)
            supervisor->observeRound(record, events);

        result.rounds.push_back(record);

        // Graceful degradation: a streak of bad rounds means the
        // governor is undervolting past what this machine tolerates
        // right now — ratchet its decisions upward and keep serving.
        if (record.anyAbnormal || record.crashed) {
            if (++consecutive_abnormal >=
                options.clampAfterAbnormalRounds) {
                clamp += options.clampStepMv;
                consecutive_abnormal = 0;
            }
        } else {
            consecutive_abnormal = 0;
        }

        if (journal) {
            // The checkpoint frame is the round's commit: round and
            // checkpoint land in one flushed write, so a kill at any
            // instant leaves either a fully committed round or a
            // discardable tail.
            SupervisorCheckpoint ck;
            if (supervisor)
                supervisor->checkpoint(ck);
            ck.roundsCompleted = static_cast<uint32_t>(round + 1);
            ck.legacyClampMv = clamp;
            ck.legacyStreak =
                static_cast<uint32_t>(consecutive_abnormal);
            ck.watchdogResets =
                base_resets +
                (watchdog_.interventions() - resets_before);
            ck.machineResponsive = platform_->responsive();
            const sim::SlimPro::SensorCache cache =
                slimpro_.sensorCache();
            ck.hasSensorSample = cache.hasTemperature;
            ck.sensorSample = cache.temperature;
            ck.telemetry = base_telemetry;
            ck.telemetry.merge(
                managed_.telemetry().since(telemetry_before));
            journal->append(record, ck);
        }
        if (sink)
            sink->maybeFlush(1000); // periodic, time-gated
    }

    // Session durability barrier: a batched flushEveryRounds policy
    // drains here, so run() never returns with served rounds only in
    // the writer's buffer.
    if (journal)
        journal->flush();

    if (result.complete) {
        // The end-of-session revive draws from its own sub-stream
        // (one past the last round), so a fully-replayed resume
        // performs it identically to the uninterrupted session.
        if (plan)
            plan->scopeTo(roundFaultScope(
                seed, static_cast<uint64_t>(rounds)));
        managed_.revive(sim::WatchdogContext::DaemonEnd);
    }

    // Aggregates are recomputed uniformly over replayed + fresh
    // rounds; replayed doubles are bit-exact from the journal, so
    // the totals equal the uninterrupted session's.
    double voltage_sum = 0.0;
    double total_energy = 0.0;
    double total_nominal = 0.0;
    for (const auto &round : result.rounds) {
        voltage_sum += static_cast<double>(round.voltage);
        total_energy += round.energyJoule;
        total_nominal += round.nominalJoule;
        result.abnormalRounds += round.anyAbnormal ? 1 : 0;
        result.crashes += round.crashed ? 1 : 0;
        result.reexecutions +=
            static_cast<uint64_t>(round.reexecutions);
        result.fallbackRounds += round.nominalFallback ? 1 : 0;
        switch (static_cast<FallbackReason>(round.fallbackReason)) {
        case FallbackReason::RetriesExhausted:
            ++result.fallbackRetriesExhausted;
            break;
        case FallbackReason::MachineUnresponsive:
            ++result.fallbackMachineUnresponsive;
            break;
        case FallbackReason::None:
            break;
        }
    }
    result.watchdogResets =
        base_resets + (watchdog_.interventions() - resets_before);
    result.governorClampMv = clamp;
    result.telemetry = base_telemetry;
    result.telemetry.merge(
        managed_.telemetry().since(telemetry_before));
    result.telemetry.fallbackRounds = result.fallbackRounds;
    result.averageVoltage =
        result.rounds.empty()
            ? static_cast<double>(options.safeVoltage)
            : voltage_sum /
                  static_cast<double>(result.rounds.size());
    result.energySavingsPercent =
        total_nominal > 0.0
            ? 100.0 * (1.0 - total_energy / total_nominal)
            : 0.0;

    if (supervisor) {
        result.supervisorEnabled = true;
        result.supervisor = supervisor->posture();
    }
    if (sink)
        sink->flush(); // end-of-run drain
    return result;
}

} // namespace vmargin::sched
