/**
 * @file
 * Undervolting campaigns (paper section 2.2, execution phase).
 *
 * A campaign sweeps one (workload, core) pair across a descending
 * voltage range at a fixed frequency, running the benchmark at each
 * step and logging everything. The runner implements the paper's
 * methodology:
 *
 *  - Reliable cores setup: the core under characterization keeps its
 *    target frequency while every other PMD is parked at 300 MHz so
 *    background activity cannot pollute the measurement.
 *  - Safe data collection: after each run the PMD domain returns to
 *    nominal voltage before logs are stored.
 *  - Watchdog recovery: a hung machine is power-cycled by the
 *    external watchdog and the campaign continues.
 *  - Massive iterative execution: campaigns carry a repetition index
 *    so the whole sweep can be repeated (10x in the paper) with
 *    fresh non-determinism.
 */

#ifndef VMARGIN_CORE_CAMPAIGN_HH
#define VMARGIN_CORE_CAMPAIGN_HH

#include <string>
#include <vector>

#include "classifier.hh"
#include "recovery.hh"
#include "sim/platform.hh"
#include "sim/slimpro.hh"
#include "sim/watchdog.hh"
#include "workloads/profile.hh"

namespace vmargin
{

/** One campaign's characterization setup. */
struct CampaignConfig
{
    wl::WorkloadProfile workload;
    CoreId core = 0;
    MegaHertz frequency = 2400;   ///< target core's PMD frequency
    MilliVolt startVoltage = 980; ///< sweep begins here
    MilliVolt endVoltage = 840;   ///< hard floor of the sweep
    int runsPerVoltage = 1;       ///< runs at each step
    uint32_t campaignIndex = 0;   ///< repetition index
    uint32_t maxEpochs = 30;      ///< execution-length trim (speed)
    Celsius fanTarget = 43.0;     ///< thermal stabilization point
    double droopSensitivityMv = 0.0; ///< di/dt droop (ablations)

    /** Stop the sweep after this many consecutive voltage levels in
     *  which every run ended in a system crash — the machine is in
     *  the non-operating region and deeper steps add nothing. */
    int stopAfterCrashLevels = 2;

    /** Retry discipline for every management-plane transaction. */
    RetryPolicy retry;
};

/** Everything a campaign produced. */
struct CampaignResult
{
    CampaignConfig config;
    std::vector<ClassifiedRun> runs;

    /** Zero-copy run records (identity + full simulator result).
     *  The classified rows in `runs` are built directly from these;
     *  the legacy text log is derived on demand via rawLog(). */
    std::vector<RunLogRecord> records;

    uint64_t watchdogInterventions = 0;

    /** Deepest voltage level at which at least one run actually
     *  executed; 0 when the campaign never got a run off the ground
     *  (e.g. the management plane swallowed every transaction). */
    MilliVolt lowestVoltageReached = 0;

    /** Runs whose operating point could not be established within
     *  the retry budget — recorded, never silently dropped. */
    std::vector<RunKey> lostRuns;

    /** Recovery counters for this campaign (lostMeasurements filled
     *  from lostRuns). */
    RecoveryTelemetry telemetry;

    /** The stored "log files", rendered lazily from `records`. Only
     *  callers that genuinely want the text form (debug dumps, the
     *  round-trip tests) pay for the formatting. */
    std::vector<std::string> rawLog() const
    {
        return formatCampaignLog(records);
    }
};

/** Executes campaigns against a platform. */
class CampaignRunner
{
  public:
    /** @param platform machine under test (not owned) */
    explicit CampaignRunner(sim::Platform *platform);

    /**
     * Run one campaign. The platform is left responsive at nominal
     * settings afterwards.
     */
    CampaignResult run(const CampaignConfig &config);

  private:
    /**
     * Seed material for the coordinates that are invariant across a
     * campaign's sweep (workload, chip, core) — hashed once per
     * campaign, outside the hot voltage/run loops.
     */
    Seed campaignSeedBase(const CampaignConfig &config) const;

    /**
     * Deterministic per-run seed: @p base (campaignSeedBase) mixed
     * with the per-run coordinates. Produces exactly the same seeds
     * as hashing the full tuple from scratch.
     */
    Seed runSeed(Seed base, const CampaignConfig &config,
                 MilliVolt voltage, int run_index) const;

    /** Seed scoping the fault plan to this campaign's coordinates. */
    Seed faultScope(const CampaignConfig &config) const;

    sim::Platform *platform_;
    sim::SlimPro slimpro_;
    sim::Watchdog watchdog_;
    ManagedSlimPro managed_;
};

} // namespace vmargin

#endif // VMARGIN_CORE_CAMPAIGN_HH
