/**
 * @file
 * The sweep engine behind both executors.
 *
 * The paper ran its characterization on three X-Gene 2 machines
 * concurrently because full V/F characterization is a multi-day
 * wall-clock problem. Every (chip, workload, core) cell's
 * measurement is a pure function of its experiment coordinates —
 * run seeds and fault streams are rebased per campaign (scopeTo),
 * never shared across cells — so executeSweep() runs each fresh
 * cell on its own replica of its chip's prototype across a
 * work-stealing thread pool, then merges the cells in plan order.
 * CampaignExecutor is its one-chip call; FleetExecutor (core/fleet)
 * is its N-chip call.
 *
 * Determinism contract: the emitted report — run CSV, per-cell
 * analyses and serialized form — is identical for any worker count,
 * including 1, and identical to a journal-resumed or cache-served
 * sweep of the same configuration. The write-ahead journal and the
 * cell-result cache are appended from worker threads in completion
 * order (their append paths are mutex-guarded), so their on-disk
 * cell order is the one artifact that may differ between worker
 * counts; both tolerate arbitrary order on load. One worker
 * measures the cells in plan order, so its journal bytes are fixed.
 */

#ifndef VMARGIN_CORE_EXECUTOR_HH
#define VMARGIN_CORE_EXECUTOR_HH

#include <string>
#include <vector>

#include "campaign.hh"
#include "framework.hh"
#include "ledger.hh"

namespace vmargin
{

/**
 * Run all campaign repetitions of one (workload, core) cell through
 * @p runner and collect its classified runs and recovery telemetry
 * (the cell's `records` stay empty).
 * Shared by the sequential measureCell() entry point and the
 * executor's workers (each worker passes a runner bound to its own
 * platform replica).
 */
CellMeasurement measureCellWith(CampaignRunner &runner,
                                const wl::WorkloadProfile &workload,
                                CoreId core,
                                const FrameworkConfig &config);

/**
 * Fold one measured (or replayed) cell into a report being
 * assembled: runs stream into @p view and the report's aggregate
 * counters, while a cell whose every run was lost to management
 * faults is degraded — accounted and omitted — rather than aborting
 * the sweep. The const form copies the cell's runs into
 * `report.allRuns`; the rvalue form moves them.
 */
void mergeCellIntoReport(CharacterizationReport &report,
                         LedgerView &view,
                         const CellMeasurement &cell);
void mergeCellIntoReport(CharacterizationReport &report,
                         LedgerView &view, CellMeasurement &&cell);

/**
 * Run one sweep of @p config over @p prototypes (not owned, never
 * executed on; their order is the plan and merge order), with the
 * journal bound to @p journal_header and legacy (version-1) journal
 * cells mapped onto @p implicit_chip. Returns one report per
 * prototype; `complete` is false in each when the fresh-cell budget,
 * counted across all chips, stopped the sweep early.
 */
std::vector<CharacterizationReport>
executeSweep(const std::vector<const sim::Platform *> &prototypes,
             const FrameworkConfig &config,
             const std::string &journal_header,
             const ChipRef &implicit_chip);

/**
 * One sweep on one chip: executeSweep() over the prototype alone,
 * with the journalHeaderFor() header and the prototype's own chip as
 * the implicit chip, so existing journals stay valid.
 */
class CampaignExecutor
{
  public:
    /** @param prototype machine under test (not owned) */
    explicit CampaignExecutor(sim::Platform *prototype);

    /** Run the sweep described by @p config (already validated). */
    CharacterizationReport run(const FrameworkConfig &config);

  private:
    sim::Platform *prototype_;
};

} // namespace vmargin

#endif // VMARGIN_CORE_EXECUTOR_HH
