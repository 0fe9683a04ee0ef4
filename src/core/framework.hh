/**
 * @file
 * The automated characterization framework (paper Figure 2, first
 * contribution): initialization, execution and parsing phases over a
 * benchmark list, a voltage sweep, a core list and campaign
 * repetitions, producing per-cell region analyses and the final CSV.
 */

#ifndef VMARGIN_CORE_FRAMEWORK_HH
#define VMARGIN_CORE_FRAMEWORK_HH

#include <map>
#include <string>
#include <vector>

#include "campaign.hh"
#include "ledger.hh"
#include "regions.hh"
#include "util/config.hh"

namespace vmargin
{

/** Full characterization configuration (initialization phase). */
struct FrameworkConfig
{
    std::vector<wl::WorkloadProfile> workloads;
    std::vector<CoreId> cores;
    MegaHertz frequency = 2400;
    MilliVolt startVoltage = 930; ///< effects never appear above
    MilliVolt endVoltage = 845;
    int runsPerVoltage = 1;  ///< runs per voltage inside a campaign
    int campaigns = 10;      ///< campaign repetitions (paper: 10)
    uint32_t maxEpochs = 30; ///< execution-length trim
    Celsius fanTarget = 43.0; ///< thermal stabilization point
    SeverityWeights weights;

    /** Retry discipline for every management-plane transaction. */
    RetryPolicy retryPolicy;

    /**
     * Write-ahead journal path (empty = no journal). Every finished
     * (workload, core) cell is appended and flushed, so a killed
     * sweep resumes from here re-running only the unfinished cells.
     */
    std::string journalPath;

    /**
     * Stop after measuring this many fresh (non-replayed) cells per
     * characterize() call; 0 = unlimited. The report is then marked
     * incomplete and a later call resumes from the journal — the
     * paper's months-long campaigns chopped into survivable
     * sessions.
     */
    int cellBudget = 0;

    /**
     * Worker threads for the parallel campaign executor; 0 selects
     * hardware_concurrency. Every (workload, core) cell runs on its
     * own fresh platform replica, so the report is byte-identical
     * for any worker count, including 1.
     */
    int workers = 0;

    /**
     * Cell-result cache path (empty = no cache), persisted next to
     * the journal. Cells already measured under the same
     * measurement-shaping configuration (cellConfigHash) are served
     * from the cache instead of re-run; entries recorded under a
     * different configuration hash are rejected per entry. Benches
     * and repeated sweeps use this to skip known cells entirely.
     */
    std::string cachePath;

    /**
     * Telemetry JSONL path (empty = telemetry sink off, config key
     * telemetry). When set, the executor appends registry snapshots
     * at deterministic phase boundaries plus an end-of-run drain.
     * Strictly out-of-band: report bytes are identical with the
     * sink on or off.
     */
    std::string telemetryPath;

    /**
     * Group-commit policy for the journal and the cache: flush after
     * this many appended cells (config key flush_every_cells). 1 —
     * the default — is the historical write-ahead contract, one
     * flush per cell; raising it batches appends and a kill loses at
     * most the unflushed batch, which resume re-runs. The executor
     * drains the batch at its merge barrier and on shutdown, and
     * these knobs never enter the journal header or the cache key —
     * they shape durability, not measurements.
     */
    int flushEveryCells = 1;

    /**
     * Also flush a non-empty batch once this many milliseconds have
     * passed since the last flush (config key flush_interval_ms;
     * 0 = no time trigger). Bounds how stale the buffered tail may
     * grow under a slow producer.
     */
    int flushIntervalMs = 0;

    /** Ledger write options assembled from the flush knobs. */
    LedgerWriteOptions writeOptions() const
    {
        LedgerWriteOptions options;
        options.flushEveryCells = flushEveryCells;
        options.flushIntervalMs = flushIntervalMs;
        return options;
    }

    /** Basic validation; fatal on an unusable configuration,
     *  including a workload id or core listed twice. */
    void validate() const;

    /**
     * Build from a key=value configuration (the initialization
     * phase's user-editable setup, Figure 2). Recognized keys:
     * workloads (list of benchmark ids, default: headline suite),
     * cores (list, default 0-7), frequency_mhz, start_mv, end_mv,
     * campaigns, runs_per_voltage, max_epochs, journal, cell_budget,
     * workers, cache, flush_every_cells, flush_interval_ms. Fatal on
     * unusable values.
     */
    static FrameworkConfig fromConfig(const util::ConfigFile &file);
};

// CellResult and CellMeasurement — the per-cell units the data
// plane stores and derives — live in ledger.hh with the rest of the
// record schema.

/** Everything the framework produced for one chip. */
struct CharacterizationReport
{
    std::string chipName;
    sim::ChipCorner corner = sim::ChipCorner::TTT;
    MegaHertz frequency = 2400;
    std::vector<CellResult> cells;
    std::vector<ClassifiedRun> allRuns;
    uint64_t watchdogInterventions = 0;
    uint64_t totalRuns = 0;

    /** Recovery counters aggregated over measured + replayed cells. */
    RecoveryTelemetry telemetry;

    /** False when a cell budget stopped the sweep early; resume by
     *  calling characterize() again with the same journal. */
    bool complete = true;

    /** Cell lookup; panics when the cell was not characterized. */
    const CellResult &cell(const std::string &workload_id,
                           CoreId core) const;

    /** Vmin of the most robust core for @p workload_id (Figure 3's
     *  per-benchmark series). */
    MilliVolt bestCoreVmin(const std::string &workload_id) const;

    /** Average Vmin across all characterized cores of a workload. */
    double averageVmin(const std::string &workload_id) const;

    /** Final CSV of every classified run (parsing-phase output). */
    std::string toCsv() const;
};

/** The orchestrator. */
class CharacterizationFramework
{
  public:
    /** @param platform machine under test (not owned) */
    explicit CharacterizationFramework(sim::Platform *platform);

    /**
     * Run the full characterization (all three phases). Cells are
     * fanned out across FrameworkConfig::workers threads by the
     * parallel campaign executor (core/executor); results merge in
     * canonical cell order, so the report is byte-identical for any
     * worker count.
     */
    CharacterizationReport characterize(const FrameworkConfig &config);

    /** Characterize a single (workload, core) cell. */
    CellResult characterizeCell(const wl::WorkloadProfile &workload,
                                CoreId core,
                                const FrameworkConfig &config);

    /**
     * Run all campaign repetitions of one cell and collect its
     * classified runs and recovery telemetry. Both characterize() and
     * characterizeCell() route through this, so the journal and
     * recovery hooks live in exactly one place.
     */
    CellMeasurement measureCell(const wl::WorkloadProfile &workload,
                                CoreId core,
                                const FrameworkConfig &config);

  private:
    sim::Platform *platform_;
    CampaignRunner runner_;
};

} // namespace vmargin

#endif // VMARGIN_CORE_FRAMEWORK_HH
