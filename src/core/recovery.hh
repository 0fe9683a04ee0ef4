/**
 * @file
 * Management-plane recovery: bounded retries with deterministic
 * simulated backoff around every SLIMpro transaction, plus watchdog
 * polling that tolerates missed power cycles.
 *
 * The paper's framework survives days of deliberately crashing a
 * machine; the follow-up framework paper (arXiv:2106.09975) adds
 * that the I2C management path itself misbehaves under undervolting.
 * This layer is what turns those transient failures into retried
 * transactions and — only when a per-operation retry budget is
 * exhausted — into recorded MeasurementLost outcomes instead of
 * aborts. Backoff is accounted in simulated microseconds so the
 * telemetry is reproducible: no wall clock is consulted anywhere.
 */

#ifndef VMARGIN_CORE_RECOVERY_HH
#define VMARGIN_CORE_RECOVERY_HH

#include <cstdint>

#include "sim/platform.hh"
#include "sim/slimpro.hh"
#include "sim/watchdog.hh"

namespace vmargin
{

/** Bounded-retry discipline for management-plane transactions. */
struct RetryPolicy
{
    /** Attempts per I2C transaction (first try included). */
    int attemptsPerOp = 4;

    /** Watchdog polls per revival before giving the machine up. */
    int watchdogPolls = 8;

    /** First retry backoff in simulated microseconds; doubles per
     *  subsequent retry of the same transaction. */
    uint64_t backoffBaseUs = 200;

    /** Exponential backoff cap. */
    uint64_t backoffCapUs = 20000;

    /** Fatal on a budget that cannot make progress. */
    void validate() const;
};

/**
 * Why a daemon round was served at the safe fallback voltage
 * instead of the governor's setpoint. A closed code set (like
 * WatchdogContext) keeps the aggregate report machine-comparable:
 * the daemon summary breaks its fallback count down by these codes.
 */
enum class FallbackReason : uint8_t
{
    None = 0,          ///< the setpoint was applied
    RetriesExhausted,  ///< I2C retry budget spent, machine still up
    MachineUnresponsive, ///< machine was down through every attempt
};

/** Printable reason name. */
const char *fallbackReasonName(FallbackReason reason);

/** Counters describing how much resilience machinery fired. */
struct RecoveryTelemetry
{
    uint64_t retries = 0;          ///< re-attempted transactions
    uint64_t backoffEvents = 0;    ///< times a backoff was taken
    uint64_t backoffUsTotal = 0;   ///< simulated time spent backing off
    uint64_t watchdogRetries = 0;  ///< extra polls after missed cycles
    uint64_t lostMeasurements = 0; ///< runs abandoned after exhaustion
    uint64_t fallbackRounds = 0;   ///< daemon rounds served at fallback

    /**
     * Accumulate @p other into this. Every field is an additive
     * uint64 counter, so merging per-cell telemetry is commutative:
     * the parallel executor can aggregate worker results in any
     * completion order and still reproduce the sequential totals
     * (it merges in canonical cell order anyway).
     */
    void merge(const RecoveryTelemetry &other);

    /** Per-field difference against an earlier snapshot. */
    RecoveryTelemetry since(const RecoveryTelemetry &baseline) const;
};

/**
 * Retrying facade over a SlimPro + Watchdog pair. Every setter runs
 * under the retry policy: failed transactions are re-attempted with
 * exponential (simulated) backoff, and a machine found dead in
 * between is revived through the watchdog — tolerating the
 * watchdog's own missed cycles up to the poll budget. Callers see a
 * plain bool: true means the setpoint took effect, false means the
 * whole budget was exhausted and the measurement should be recorded
 * as lost rather than trusted.
 */
class ManagedSlimPro
{
  public:
    /** All pointers are borrowed and must outlive the facade. */
    ManagedSlimPro(sim::Platform *platform, sim::SlimPro *slimpro,
                   sim::Watchdog *watchdog, RetryPolicy policy = {});

    void setPolicy(const RetryPolicy &policy);
    const RetryPolicy &policy() const { return policy_; }

    bool setPmdVoltage(MilliVolt mv);
    bool setSocVoltage(MilliVolt mv);
    bool setPmdFrequency(PmdId pmd, MegaHertz mhz);
    bool setFanTarget(Celsius target);

    /**
     * Poll the watchdog until the machine answers or the poll budget
     * runs out. Returns true when the machine is responsive.
     */
    bool revive(sim::WatchdogContext context);

    /** Cumulative counters since construction. */
    const RecoveryTelemetry &telemetry() const { return telemetry_; }

  private:
    /** Backoff delay before retry @p attempt (1-based). */
    uint64_t backoffUs(int attempt) const;

    template <typename Op> bool withRetry(Op &&op);

    sim::Platform *platform_;
    sim::SlimPro *slimpro_;
    sim::Watchdog *watchdog_;
    RetryPolicy policy_;
    RecoveryTelemetry telemetry_;
};

template <typename Op>
bool
ManagedSlimPro::withRetry(Op &&op)
{
    for (int attempt = 0; attempt < policy_.attemptsPerOp;
         ++attempt) {
        if (attempt > 0) {
            ++telemetry_.retries;
            ++telemetry_.backoffEvents;
            telemetry_.backoffUsTotal += backoffUs(attempt);
        }
        // A hang injected by the previous attempt (or an earlier
        // crash) leaves the machine down; revive before retrying.
        if (!platform_->responsive() &&
            !revive(sim::WatchdogContext::RecoveryPoll))
            continue;
        if (op())
            return true;
    }
    return false;
}

} // namespace vmargin

#endif // VMARGIN_CORE_RECOVERY_HH
