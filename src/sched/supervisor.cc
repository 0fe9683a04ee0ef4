#include "supervisor.hh"

#include <algorithm>
#include <string>

#include "util/logging.hh"

namespace vmargin::sched
{

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

namespace
{

/** @p state's weighted EWMA score against @p options. */
double
score(const SupervisorPosture::CoreState &state,
      const SupervisorOptions &options)
{
    return options.ceWeight * state.ceRate +
           options.ueWeight * state.ueRate +
           options.sdcWeight * state.sdcRate +
           options.crashWeight * state.crashRate;
}

} // namespace

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

SupervisorPosture::CoreState &
MarginSupervisor::coreState(CoreId core)
{
    auto &cores = posture_.cores;
    const auto it = std::lower_bound(
        cores.begin(), cores.end(), core,
        [](const SupervisorPosture::CoreState &state, CoreId id) {
            return state.core < id;
        });
    if (it != cores.end() && it->core == core)
        return *it;
    SupervisorPosture::CoreState fresh;
    fresh.core = core;
    return *cores.insert(it, fresh);
}

void
MarginSupervisor::track(CoreId core)
{
    (void)coreState(core);
}

bool
MarginSupervisor::canaryReady() const
{
    bool any = false;
    for (const auto &state : posture_.cores) {
        if (!state.quarantined)
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
    plan.guardSteps = posture_.guardSteps;
    plan.clampReason = posture_.clampReason;
    if (posture_.clampReason != ClampReason::None) {
        // Emergency clamp: serve every remaining round at the safe
        // voltage. The clamp is permanent for the session — nothing
        // observed afterward can prove the machine trustworthy
        // again, only an operator can.
        plan.undervolt = false;
        return plan;
    }
    const bool quarantine_active = std::any_of(
        posture_.cores.begin(), posture_.cores.end(),
        [](const auto &state) { return state.quarantined; });
    if (quarantine_active) {
        if (canaryReady()) {
            // Probe re-admission at a stepped-down undervolt:
            // deeper than safe, shallower than normal operation.
            plan.canary = true;
            plan.guardSteps =
                posture_.guardSteps + options_.canaryGuardSteps;
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
    if (posture_.clampReason == ClampReason::None &&
        reason != ClampReason::None) {
        posture_.clampReason = reason;
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
        SupervisorPosture::CoreState &state = coreState(event.core);
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

        if (state.quarantined) {
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
        auto &window = posture_.recentCrashRounds;
        window.push_back(static_cast<uint32_t>(record.round));
        const int64_t oldest =
            static_cast<int64_t>(record.round) -
            static_cast<int64_t>(options_.crashWindowRounds) + 1;
        std::erase_if(window, [&](uint32_t round) {
            return static_cast<int64_t>(round) < oldest;
        });
        if (window.size() >=
            static_cast<size_t>(options_.crashClampCount))
            escalate(ClampReason::CrashStorm);
    }

    if (record.safePinned) {
        ++posture_.pinnedRounds;
        return; // nothing below applies to a safe-pinned round
    }

    if (record.canaryProbe && undervolted) {
        ++posture_.canaryRounds;
        if (round_clean) {
            // The probe passed: every quarantined core rejoins the
            // reduced-voltage pool with a clean slate — keeping the
            // pre-quarantine EWMA would re-quarantine it on the
            // first corrected error.
            for (auto &state : posture_.cores) {
                if (!state.quarantined)
                    continue;
                state.quarantined = false;
                state.ceRate = 0.0;
                state.ueRate = 0.0;
                state.sdcRate = 0.0;
                state.crashRate = 0.0;
                state.cleanInQuarantine = 0;
                ++posture_.readmissions;
                statQuarantineExits_.inc();
            }
        } else {
            ++posture_.canaryFailures;
            for (auto &state : posture_.cores)
                if (state.quarantined)
                    state.cleanInQuarantine = 0;
        }
    }

    if (!undervolted)
        return; // a fallback round says nothing about the margin

    // Guardband hysteresis: fast back-off on any abnormal round,
    // slow narrowing after a streak of clean ones.
    if (!round_clean) {
        posture_.guardSteps =
            std::min(options_.maxGuardSteps,
                     posture_.guardSteps + options_.backoffGuardSteps);
        posture_.peakGuardSteps =
            std::max(posture_.peakGuardSteps, posture_.guardSteps);
        ++posture_.backoffEvents;
        statBackoffs_.inc();
        posture_.cleanStreak = 0;
    } else {
        ++posture_.cleanStreak;
        if (posture_.cleanStreak >=
                static_cast<uint32_t>(options_.cleanRoundsToNarrow) &&
            posture_.guardSteps > 0) {
            --posture_.guardSteps;
            ++posture_.narrowEvents;
            statNarrows_.inc();
            posture_.cleanStreak = 0;
        }
    }

    // Quarantine: a core whose weighted abnormal rate crossed the
    // threshold stops getting undervolted work.
    for (auto &state : posture_.cores) {
        if (state.quarantined)
            continue;
        const double core_score = score(state, options_);
        if (core_score > options_.quarantineScore) {
            state.quarantined = true;
            state.cleanInQuarantine = 0;
            ++posture_.quarantines;
            statQuarantineEntries_.inc();
            util::warnf("supervisor: quarantining core ", state.core,
                        " (score ", core_score, " > threshold ",
                        options_.quarantineScore, ")");
        }
    }
}

void
MarginSupervisor::checkpoint(SupervisorCheckpoint &out) const
{
    out.supervisorEnabled = true;
    out.supervisor = posture_;
}

void
MarginSupervisor::restore(const SupervisorCheckpoint &state)
{
    // The journal header binds maxGuardSteps, so only a damaged or
    // forged checkpoint carries a guard past it.
    const int guard = state.supervisor.guardSteps;
    if (guard > options_.maxGuardSteps)
        util::fatalError("supervisor: checkpoint guard " +
                         std::to_string(guard) +
                         " steps exceeds maxGuardSteps " +
                         std::to_string(options_.maxGuardSteps));
    posture_ = state.supervisor;
}

} // namespace vmargin::sched
