/**
 * @file
 * Online margin supervisor: the safety layer wrapped around the
 * voltage governor inside the daemon loop.
 *
 * The paper's daemon (sections 3.4.1 and 5) trusts a trained
 * severity predictor; six months of characterization show that trust
 * must be hedged — cores age, corners drift, and the management
 * plane itself misbehaves under reduced voltage. The supervisor
 * closes a second, slower loop around the governor:
 *
 *  - it tracks per-core EWMA rates of corrected errors, uncorrected
 *    errors, SDCs and crashes from every round's outcome, and
 *    adaptively widens the governor's guardband with hysteresis —
 *    fast back-off on any abnormal round, slow narrowing after a
 *    streak of clean rounds;
 *
 *  - a core whose weighted abnormal rate crosses the quarantine
 *    threshold is quarantined: the PMD domain being shared, the
 *    daemon pins whole rounds at the safe voltage while the core
 *    heals. Re-admission requires a canary probe round at a
 *    stepped-down undervolt to pass clean;
 *
 *  - repeated crashes inside a sliding window escalate to an
 *    emergency nominal clamp with a reason code — the daemon keeps
 *    serving rounds at the safe voltage, never dies with the margin;
 *
 *  - the whole posture (`SupervisorPosture`: guardband, quarantine
 *    set, event counters) checkpoints into the daemon journal after
 *    every round, so a watchdog power cycle resumes with the learned
 *    safety posture instead of re-learning it by crashing again.
 */

#ifndef VMARGIN_SCHED_SUPERVISOR_HH
#define VMARGIN_SCHED_SUPERVISOR_HH

#include <vector>

#include "core/ledger.hh"
#include "obs/metrics.hh"
#include "util/types.hh"

namespace vmargin::sched
{

using vmargin::ClampReason;
using vmargin::clampReasonName;

/** Supervisor tuning. */
struct SupervisorOptions
{
    /** EWMA smoothing factor for per-core event rates (0, 1]. */
    double ewmaAlpha = 0.3;

    /** Severity weights folding the four rates into one score
     *  (mirroring the CE < UE < SDC < crash order the paper's
     *  severity function uses). */
    double ceWeight = 0.5;
    double ueWeight = 1.0;
    double sdcWeight = 2.0;
    double crashWeight = 4.0;

    /** Weighted EWMA score beyond which a core is quarantined. */
    double quarantineScore = 1.2;

    /** Guard steps added per abnormal round (fast back-off). */
    int backoffGuardSteps = 2;

    /** Adaptive guard ceiling (steps above the governor's own). */
    int maxGuardSteps = 10;

    /** Clean rounds required before narrowing the guard by one
     *  step (slow re-probe). */
    int cleanRoundsToNarrow = 4;

    /** Clean pinned rounds a quarantined core must serve before a
     *  canary probe is attempted. */
    int quarantineHoldRounds = 3;

    /** Extra guard steps a canary probe runs with (stepped-down
     *  undervolt: deeper than safe, shallower than normal). */
    int canaryGuardSteps = 2;

    /** Crash-storm window length in rounds. */
    int crashWindowRounds = 10;

    /** Crashes inside the window that trigger the nominal clamp. */
    int crashClampCount = 3;

    /** Fatal on values the supervisor cannot operate with; every
     *  message carries the offending value. */
    void validate() const;
};

/** The supervisor's verdict for one upcoming round. */
struct RoundPlan
{
    /** False: pin the round at the safe voltage (quarantine healing
     *  or emergency clamp); the governor is not consulted. */
    bool undervolt = true;

    /** True: this undervolted round is a canary probe. */
    bool canary = false;

    /** Adaptive guard steps to add on top of the governor's
     *  configured guardband. */
    int guardSteps = 0;

    /** Active emergency clamp, if any. */
    ClampReason clampReason = ClampReason::None;

    bool operator==(const RoundPlan &other) const = default;
};

/** One core's observed events in one round. */
struct CoreRoundEvents
{
    CoreId core = 0;
    bool ran = false; ///< false: machine was already down
    uint64_t correctedErrors = 0;
    uint64_t uncorrectedErrors = 0;
    bool sdc = false;     ///< completed with mismatching output
    bool crashed = false; ///< system or application crash
};

/** The adaptive safety layer around the governor. */
class MarginSupervisor
{
  public:
    explicit MarginSupervisor(SupervisorOptions options = {});

    /** Register @p core for supervision (idempotent). */
    void track(CoreId core);

    /** Plan the next round from the current posture. */
    RoundPlan planRound() const;

    /**
     * Fold one served round back into the posture: update EWMAs,
     * quarantine/re-admit cores, adapt the guardband, advance the
     * crash window. @p record must be the round as recorded
     * (voltage, flags) and @p events the per-core outcomes.
     */
    void observeRound(const DaemonRoundRecord &record,
                      const std::vector<CoreRoundEvents> &events);

    /**
     * Escalate to an emergency clamp (idempotent; the first reason
     * sticks). The daemon calls this when a revive exhausts the
     * watchdog poll budget; a crash storm triggers it internally.
     */
    void escalate(ClampReason reason);

    const SupervisorOptions &options() const { return options_; }

    /** The whole posture: guard, clamp, lifetime counters, crash
     *  window and per-core state. */
    const SupervisorPosture &posture() const { return posture_; }

    /**
     * Snapshot the supervisor posture into the wire-format
     * checkpoint (the daemon fills the daemon-side fields). The
     * snapshot is complete: restore() reproduces the posture — and
     * therefore every future decision — exactly.
     */
    void checkpoint(SupervisorCheckpoint &out) const;

    /** Restore a posture snapshot taken by checkpoint(). */
    void restore(const SupervisorCheckpoint &state);

  private:
    /** True when every quarantined core has held clean long enough
     *  for a canary probe. */
    bool canaryReady() const;

    /** @p core's state, tracked from here on if it was not. */
    SupervisorPosture::CoreState &coreState(CoreId core);

    SupervisorOptions options_;
    SupervisorPosture posture_;

    // Telemetry (exact-class: the daemon loop is single-threaded and
    // every event is a pure function of the session's seed). Unlike
    // the posture these count only *this process's* events —
    // restore() never rewinds them.
    obs::Counter &statQuarantineEntries_;
    obs::Counter &statQuarantineExits_;
    obs::Counter &statEmergencyClamps_;
    obs::Counter &statBackoffs_;
    obs::Counter &statNarrows_;
};

} // namespace vmargin::sched

#endif // VMARGIN_SCHED_SUPERVISOR_HH
