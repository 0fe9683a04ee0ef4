/**
 * @file
 * Closed-loop undervolting daemon simulation.
 *
 * The paper positions the severity predictor as the brain of an
 * online "software daemon" (sections 3.4.1 and 5) that watches the
 * PMU, sets the shared domain voltage and lets the workload run.
 * This module closes that loop against the simulated platform: per
 * scheduling round the daemon observes the active cores' counter
 * profiles, asks the governor for a voltage, applies it through the
 * SLIMpro, executes the round, accounts the energy and recovers
 * from any crash through the watchdog. The result quantifies the
 * realized savings and the safety record of the whole scheme.
 *
 * An optional MarginSupervisor wraps the governor: it adapts the
 * guardband to the observed abnormal-event rates, quarantines
 * misbehaving cores, clamps to nominal under crash storms, and —
 * through the daemon journal — persists that whole safety posture
 * so a killed or power-cycled session resumes where it left off and
 * reproduces the uninterrupted session's report byte for byte.
 */

#ifndef VMARGIN_SCHED_DAEMON_HH
#define VMARGIN_SCHED_DAEMON_HH

#include <map>
#include <string>
#include <vector>

#include "core/profiler.hh"
#include "core/recovery.hh"
#include "core/tradeoff.hh"
#include "governor.hh"
#include "power/energy.hh"
#include "sim/slimpro.hh"
#include "sim/watchdog.hh"
#include "supervisor.hh"

namespace vmargin::sched
{

/**
 * One scheduling round's outcome. The persisted wire format in
 * core/ledger *is* the in-memory record: the daemon journal appends
 * these verbatim and a resumed session replays them bit-exactly.
 */
using RoundRecord = ::vmargin::DaemonRoundRecord;

/** Daemon behaviour knobs. */
struct DaemonOptions
{
    /** Execution-length trim per task. */
    uint32_t maxEpochs = 10;

    /**
     * Section 4.4 mitigation: when a completed task's output
     * mismatches (SDC), re-execute it at the safe voltage and pay
     * the extra energy. Lets an aggressive severity tolerance stay
     * *correct* — the daemon result then shows whether the gamble
     * still saves energy net of recoveries.
     */
    bool reexecuteOnSdc = false;

    /** Voltage used for re-executions (and known-safe work). */
    MilliVolt safeVoltage = 980;

    /** Retry discipline for every management-plane transaction. */
    RetryPolicy retry;

    /**
     * Graceful degradation: after this many *consecutive* abnormal
     * or crashed rounds the daemon stops trusting the governor at
     * face value and clamps its decisions upward by clampStepMv
     * (cumulatively, capped at safeVoltage). The daemon keeps
     * serving rounds instead of dying with the margin.
     */
    int clampAfterAbnormalRounds = 3;

    /** Upward clamp growth per trigger. */
    MilliVolt clampStepMv = 10;

    /** Enable the margin supervisor: adaptive guardband, core
     *  quarantine with canary re-admission, emergency clamp. */
    bool supervise = false;

    /** Supervisor tuning (used when supervise is set). */
    SupervisorOptions supervisor;

    /**
     * Daemon journal path; empty runs without persistence. With a
     * journal every served round is committed (round frame plus
     * supervisor checkpoint) before the next begins, and run()
     * resumes an existing journal from its first unserved round.
     */
    std::string journalPath;

    /**
     * Serve at most this many *fresh* rounds this session, then
     * return with complete=false (0 = no limit). With a journal
     * this simulates a mid-session kill: the next run() with the
     * same arguments continues exactly where this one stopped.
     */
    int roundBudget = 0;

    /**
     * Group-commit policy for the daemon journal: flush the journal
     * once per this many committed rounds (>= 1). The default — one
     * flush per round — is the historical contract: a watchdog power
     * cycle never loses a served round. Raising it trades a bounded,
     * replay-tolerated kill-tail (the unflushed rounds re-run on
     * resume) for fewer flushes on long soaks; run() drains the
     * batch before returning. Durability-only: excluded from the
     * journal binding header, like journalPath itself.
     */
    int flushEveryRounds = 1;

    /**
     * Telemetry JSONL path (empty = sink off). One snapshot per
     * served round batch plus an end-of-run drain. Out-of-band:
     * the daemon report is byte-identical with the sink on or off,
     * and excluded from the journal binding header.
     */
    std::string telemetryPath;
};

/** Aggregate daemon statistics. */
struct DaemonResult
{
    std::vector<RoundRecord> rounds;
    double averageVoltage = 980.0;
    double energySavingsPercent = 0.0; ///< vs all-nominal energy
    uint64_t abnormalRounds = 0;
    uint64_t crashes = 0;
    uint64_t watchdogResets = 0;
    uint64_t reexecutions = 0; ///< SDC recoveries (if enabled)

    /** Rounds served at the safe fallback voltage because the
     *  governor's setpoint could not be applied. */
    uint64_t fallbackRounds = 0;

    /** fallbackRounds broken down by FallbackReason. */
    uint64_t fallbackRetriesExhausted = 0;
    uint64_t fallbackMachineUnresponsive = 0;

    /** Final upward clamp on governor decisions (0 = never
     *  triggered). */
    MilliVolt governorClampMv = 0;

    /** False when roundBudget stopped the session early. */
    bool complete = true;

    /** Rounds replayed verbatim from the journal this session. */
    uint64_t replayedRounds = 0;

    /** Recovery counters for this session (journal-cumulative). */
    RecoveryTelemetry telemetry;

    /** True when the session ran supervised. */
    bool supervisorEnabled = false;

    /** Supervisor posture at session end (default-valued when the
     *  session ran unsupervised). */
    SupervisorPosture supervisor;
};

/**
 * Canonical textual report of a daemon session: every round plus the
 * aggregates, doubles rendered round-trip exact. Two sessions that
 * served the same rounds — e.g. an uninterrupted run and a killed
 * run resumed from its journal — produce byte-identical reports.
 * Session-local operational detail (replayedRounds) is deliberately
 * excluded.
 */
std::string formatDaemonReport(const DaemonResult &result);

/** Human-readable summary with reason-coded fallback counts. */
std::string formatDaemonSummary(const DaemonResult &result);

/** The closed-loop daemon. */
class GovernorDaemon
{
  public:
    /**
     * @param platform machine under control (not owned)
     * @param governor trained voltage governor (moved in; its
     *        configuration is validated here, value-bearing fatal
     *        on a config the daemon cannot operate with)
     */
    GovernorDaemon(sim::Platform *platform, VoltageGovernor governor);

    /**
     * Register the nominal-condition counter profile of a workload;
     * the daemon observes these counters when that workload is
     * scheduled (the paper's "monitoring the 5 representative
     * performance counters").
     */
    void registerProfile(const WorkloadCounters &profile);

    /**
     * Run @p rounds scheduling rounds of the fixed placement. Every
     * placed workload must have a registered profile and its core a
     * governor predictor; otherwise the round pins nominal voltage
     * (the governor's fail-safe). With options.journalPath set, an
     * existing journal's committed rounds are replayed verbatim and
     * execution continues from the first unserved round with the
     * checkpointed safety posture restored.
     */
    DaemonResult run(const std::vector<Placement> &placements,
                     int rounds, Seed seed,
                     const DaemonOptions &options);

    /** Convenience overload with default options. */
    DaemonResult run(const std::vector<Placement> &placements,
                     int rounds, Seed seed,
                     uint32_t max_epochs = 10);

    const VoltageGovernor &governor() const { return governor_; }

  private:
    sim::Platform *platform_;
    VoltageGovernor governor_;
    sim::SlimPro slimpro_;
    sim::Watchdog watchdog_;
    ManagedSlimPro managed_;
    std::map<std::string, WorkloadCounters> profiles_;
};

} // namespace vmargin::sched

#endif // VMARGIN_SCHED_DAEMON_HH
