#include "supervisor.hh"

#include <algorithm>
#include <string>

#include "util/logging.hh"

namespace vmargin::sched
{

const char *
clampReasonName(ClampReason reason)
{
    switch (reason) {
    case ClampReason::None:
        return "none";
    case ClampReason::CrashStorm:
        return "crash-storm";
    case ClampReason::WatchdogExhausted:
        return "watchdog-exhausted";
    }
    return "unknown";
}

void
SupervisorOptions::validate() const
{
    if (ewmaAlpha <= 0.0 || ewmaAlpha > 1.0)
        util::fatalError(
            "supervisor: ewmaAlpha must be in (0, 1] (got " +
            std::to_string(ewmaAlpha) + ")");
    if (ceWeight < 0.0 || ueWeight < 0.0 || sdcWeight < 0.0 ||
        crashWeight < 0.0)
        util::fatalError(
            "supervisor: event weights must be >= 0 (got ce " +
            std::to_string(ceWeight) + ", ue " +
            std::to_string(ueWeight) + ", sdc " +
            std::to_string(sdcWeight) + ", crash " +
            std::to_string(crashWeight) + ")");
    if (quarantineScore <= 0.0)
        util::fatalError(
            "supervisor: quarantineScore must be positive (got " +
            std::to_string(quarantineScore) + ")");
    if (backoffGuardSteps < 1)
        util::fatalError(
            "supervisor: backoffGuardSteps must be >= 1 (got " +
            std::to_string(backoffGuardSteps) + ")");
    if (maxGuardSteps < 1)
        util::fatalError(
            "supervisor: maxGuardSteps must be >= 1 (got " +
            std::to_string(maxGuardSteps) + ")");
    if (cleanRoundsToNarrow < 1)
        util::fatalError(
            "supervisor: cleanRoundsToNarrow must be >= 1 (got " +
            std::to_string(cleanRoundsToNarrow) + ")");
    if (quarantineHoldRounds < 1)
        util::fatalError(
            "supervisor: quarantineHoldRounds must be >= 1 (got " +
            std::to_string(quarantineHoldRounds) + ")");
    if (canaryGuardSteps < 0)
        util::fatalError(
            "supervisor: canaryGuardSteps must be >= 0 (got " +
            std::to_string(canaryGuardSteps) + ")");
    if (crashWindowRounds < 1)
        util::fatalError(
            "supervisor: crashWindowRounds must be >= 1 (got " +
            std::to_string(crashWindowRounds) + ")");
    if (crashClampCount < 1)
        util::fatalError(
            "supervisor: crashClampCount must be >= 1 (got " +
            std::to_string(crashClampCount) + ")");
}

double
MarginSupervisor::CoreState::score(
    const SupervisorOptions &options) const
{
    return options.ceWeight * ceRate + options.ueWeight * ueRate +
           options.sdcWeight * sdcRate +
           options.crashWeight * crashRate;
}

MarginSupervisor::MarginSupervisor(SupervisorOptions options)
    : options_(options),
      statQuarantineEntries_(obs::Registry::global().counter(
          "supervisor.quarantine_entries")),
      statQuarantineExits_(obs::Registry::global().counter(
          "supervisor.quarantine_exits")),
      statEmergencyClamps_(obs::Registry::global().counter(
          "supervisor.emergency_clamps")),
      statBackoffs_(
          obs::Registry::global().counter("supervisor.backoffs")),
      statNarrows_(
          obs::Registry::global().counter("supervisor.narrows"))
{
    options_.validate();
}

void
MarginSupervisor::track(CoreId core)
{
    cores_.emplace(core, CoreState{});
}

bool
MarginSupervisor::canaryReady() const
{
    bool any = false;
    for (const auto &[core, state] : cores_) {
        if (state.mode != CoreMode::Quarantined)
            continue;
        any = true;
        if (state.cleanInQuarantine <
            static_cast<uint32_t>(options_.quarantineHoldRounds))
            return false;
    }
    return any;
}

RoundPlan
MarginSupervisor::planRound() const
{
    RoundPlan plan;
    plan.guardSteps = guardSteps_;
    plan.clampReason = clampReason_;
    if (clampReason_ != ClampReason::None) {
        // Emergency clamp: serve every remaining round at the safe
        // voltage. The clamp is permanent for the session — nothing
        // observed afterward can prove the machine trustworthy
        // again, only an operator can.
        plan.undervolt = false;
        return plan;
    }
    const bool quarantine_active = std::any_of(
        cores_.begin(), cores_.end(), [](const auto &entry) {
            return entry.second.mode != CoreMode::Normal;
        });
    if (quarantine_active) {
        if (canaryReady()) {
            // Probe re-admission at a stepped-down undervolt:
            // deeper than safe, shallower than normal operation.
            plan.canary = true;
            plan.guardSteps = guardSteps_ + options_.canaryGuardSteps;
        } else {
            // Healing: the PMD domain is shared, so quarantining a
            // core from reduced voltage pins the whole round safe.
            plan.undervolt = false;
        }
    }
    return plan;
}

void
MarginSupervisor::escalate(ClampReason reason)
{
    if (clampReason_ == ClampReason::None &&
        reason != ClampReason::None) {
        clampReason_ = reason;
        statEmergencyClamps_.inc();
        util::warnf("supervisor: emergency nominal clamp (",
                    clampReasonName(reason), ")");
    }
}

void
MarginSupervisor::observeRound(
    const DaemonRoundRecord &record,
    const std::vector<CoreRoundEvents> &events)
{
    const double alpha = options_.ewmaAlpha;
    const bool round_clean = !record.anyAbnormal && !record.crashed;
    // A fallback round ran at the safe voltage, not the planned
    // setpoint: its outcome says nothing about the margin, so it
    // neither backs the guard off nor narrows it, and a canary that
    // fell back proved nothing either way.
    const bool undervolted =
        !record.safePinned && !record.nominalFallback;

    for (const auto &event : events) {
        auto it = cores_.find(event.core);
        if (it == cores_.end())
            it = cores_.emplace(event.core, CoreState{}).first;
        CoreState &state = it->second;
        if (!event.ran)
            continue; // the machine was down; the core saw nothing
        state.ceRate =
            (1.0 - alpha) * state.ceRate +
            alpha * static_cast<double>(event.correctedErrors);
        state.ueRate =
            (1.0 - alpha) * state.ueRate +
            alpha * static_cast<double>(event.uncorrectedErrors);
        state.sdcRate = (1.0 - alpha) * state.sdcRate +
                        alpha * (event.sdc ? 1.0 : 0.0);
        state.crashRate = (1.0 - alpha) * state.crashRate +
                          alpha * (event.crashed ? 1.0 : 0.0);
        state.ceEvents += event.correctedErrors;
        state.ueEvents += event.uncorrectedErrors;
        state.sdcEvents += event.sdc ? 1 : 0;
        state.crashEvents += event.crashed ? 1 : 0;

        if (state.mode == CoreMode::Quarantined) {
            const bool clean = event.correctedErrors == 0 &&
                               event.uncorrectedErrors == 0 &&
                               !event.sdc && !event.crashed;
            state.cleanInQuarantine =
                clean ? state.cleanInQuarantine + 1 : 0;
        }
    }

    // Crash-storm window: crashes are counted whatever voltage the
    // round ran at — a machine that crashes at the *safe* voltage is
    // in worse trouble, not better.
    if (record.crashed) {
        recentCrashRounds_.push_back(
            static_cast<uint32_t>(record.round));
        const int64_t oldest =
            static_cast<int64_t>(record.round) -
            static_cast<int64_t>(options_.crashWindowRounds) + 1;
        std::erase_if(recentCrashRounds_, [&](uint32_t round) {
            return static_cast<int64_t>(round) < oldest;
        });
        if (recentCrashRounds_.size() >=
            static_cast<size_t>(options_.crashClampCount))
            escalate(ClampReason::CrashStorm);
    }

    if (record.safePinned) {
        ++pinnedRounds_;
        return; // nothing below applies to a safe-pinned round
    }

    if (record.canaryProbe && undervolted) {
        ++canaryRounds_;
        if (round_clean) {
            // The probe passed: every quarantined core rejoins the
            // reduced-voltage pool with a clean slate — keeping the
            // pre-quarantine EWMA would re-quarantine it on the
            // first corrected error.
            for (auto &[core, state] : cores_) {
                if (state.mode != CoreMode::Quarantined)
                    continue;
                state.mode = CoreMode::Normal;
                state.ceRate = 0.0;
                state.ueRate = 0.0;
                state.sdcRate = 0.0;
                state.crashRate = 0.0;
                state.cleanInQuarantine = 0;
                ++readmissions_;
                statQuarantineExits_.inc();
            }
        } else {
            ++canaryFailures_;
            for (auto &[core, state] : cores_)
                if (state.mode == CoreMode::Quarantined)
                    state.cleanInQuarantine = 0;
        }
    }

    if (!undervolted)
        return; // a fallback round says nothing about the margin

    // Guardband hysteresis: fast back-off on any abnormal round,
    // slow narrowing after a streak of clean ones.
    if (!round_clean) {
        guardSteps_ = std::min(options_.maxGuardSteps,
                               guardSteps_ +
                                   options_.backoffGuardSteps);
        peakGuardSteps_ = std::max(peakGuardSteps_, guardSteps_);
        ++backoffEvents_;
        statBackoffs_.inc();
        cleanStreak_ = 0;
    } else {
        ++cleanStreak_;
        if (cleanStreak_ >=
                static_cast<uint32_t>(options_.cleanRoundsToNarrow) &&
            guardSteps_ > 0) {
            --guardSteps_;
            ++narrowEvents_;
            statNarrows_.inc();
            cleanStreak_ = 0;
        }
    }

    // Quarantine: a core whose weighted abnormal rate crossed the
    // threshold stops getting undervolted work.
    for (auto &[core, state] : cores_) {
        if (state.mode != CoreMode::Normal)
            continue;
        if (state.score(options_) > options_.quarantineScore) {
            state.mode = CoreMode::Quarantined;
            state.cleanInQuarantine = 0;
            ++quarantines_;
            statQuarantineEntries_.inc();
            util::warnf("supervisor: quarantining core ", core,
                        " (score ", state.score(options_),
                        " > threshold ", options_.quarantineScore,
                        ")");
        }
    }
}

bool
MarginSupervisor::quarantined(CoreId core) const
{
    const auto it = cores_.find(core);
    return it != cores_.end() &&
           it->second.mode == CoreMode::Quarantined;
}

std::vector<CoreId>
MarginSupervisor::quarantinedCores() const
{
    std::vector<CoreId> cores;
    for (const auto &[core, state] : cores_)
        if (state.mode == CoreMode::Quarantined)
            cores.push_back(core);
    return cores;
}

void
MarginSupervisor::checkpoint(SupervisorCheckpoint &out) const
{
    out.supervisorEnabled = true;
    out.guardSteps = guardSteps_;
    out.peakGuardSteps = peakGuardSteps_;
    out.cleanStreak = cleanStreak_;
    out.clampReason = static_cast<uint8_t>(clampReason_);
    out.backoffEvents = backoffEvents_;
    out.narrowEvents = narrowEvents_;
    out.quarantines = quarantines_;
    out.readmissions = readmissions_;
    out.canaryRounds = canaryRounds_;
    out.canaryFailures = canaryFailures_;
    out.pinnedRounds = pinnedRounds_;
    out.recentCrashRounds = recentCrashRounds_;
    out.cores.clear();
    for (const auto &[core, state] : cores_) {
        SupervisorCheckpoint::CoreState persisted;
        persisted.core = static_cast<uint32_t>(core);
        persisted.mode = static_cast<uint8_t>(state.mode);
        persisted.ceRate = state.ceRate;
        persisted.ueRate = state.ueRate;
        persisted.sdcRate = state.sdcRate;
        persisted.crashRate = state.crashRate;
        persisted.ceEvents = state.ceEvents;
        persisted.ueEvents = state.ueEvents;
        persisted.sdcEvents = state.sdcEvents;
        persisted.crashEvents = state.crashEvents;
        persisted.cleanInQuarantine = state.cleanInQuarantine;
        out.cores.push_back(persisted);
    }
}

void
MarginSupervisor::restore(const SupervisorCheckpoint &state)
{
    guardSteps_ = state.guardSteps;
    peakGuardSteps_ = state.peakGuardSteps;
    cleanStreak_ = state.cleanStreak;
    clampReason_ = static_cast<ClampReason>(state.clampReason);
    backoffEvents_ = state.backoffEvents;
    narrowEvents_ = state.narrowEvents;
    quarantines_ = state.quarantines;
    readmissions_ = state.readmissions;
    canaryRounds_ = state.canaryRounds;
    canaryFailures_ = state.canaryFailures;
    pinnedRounds_ = state.pinnedRounds;
    recentCrashRounds_ = state.recentCrashRounds;
    cores_.clear();
    for (const auto &persisted : state.cores) {
        CoreState core;
        core.mode = static_cast<CoreMode>(persisted.mode);
        core.ceRate = persisted.ceRate;
        core.ueRate = persisted.ueRate;
        core.sdcRate = persisted.sdcRate;
        core.crashRate = persisted.crashRate;
        core.ceEvents = persisted.ceEvents;
        core.ueEvents = persisted.ueEvents;
        core.sdcEvents = persisted.sdcEvents;
        core.crashEvents = persisted.crashEvents;
        core.cleanInQuarantine = persisted.cleanInQuarantine;
        cores_[static_cast<CoreId>(persisted.core)] = core;
    }
}

} // namespace vmargin::sched
