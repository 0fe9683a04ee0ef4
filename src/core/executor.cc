#include "executor.hh"

#include <algorithm>
#include <iterator>
#include <memory>

#include "cellcache.hh"
#include "obs/metrics.hh"
#include "obs/sink.hh"
#include "resultstore.hh"
#include "util/logging.hh"
#include "util/threadpool.hh"

namespace vmargin
{

CellMeasurement
measureCellWith(CampaignRunner &runner,
                const wl::WorkloadProfile &workload, CoreId core,
                const FrameworkConfig &config)
{
    CellMeasurement cell;
    cell.workloadId = workload.id();
    cell.core = core;
    for (int rep = 0; rep < config.campaigns; ++rep) {
        CampaignConfig campaign;
        campaign.workload = workload;
        campaign.core = core;
        campaign.frequency = config.frequency;
        campaign.startVoltage = config.startVoltage;
        campaign.endVoltage = config.endVoltage;
        campaign.runsPerVoltage = config.runsPerVoltage;
        campaign.campaignIndex = static_cast<uint32_t>(rep);
        campaign.maxEpochs = config.maxEpochs;
        campaign.fanTarget = config.fanTarget;
        campaign.retry = config.retryPolicy;
        CampaignResult result = runner.run(campaign);
        if (cell.runs.empty()) {
            // First campaign sizes the aggregate vectors: later
            // campaigns of the same cell produce similar volumes,
            // so one reservation covers the whole loop.
            cell.runs.reserve(result.runs.size() *
                              static_cast<size_t>(config.campaigns));
        }
        cell.runs.insert(cell.runs.end(),
                         std::make_move_iterator(result.runs.begin()),
                         std::make_move_iterator(result.runs.end()));
        cell.watchdogInterventions += result.watchdogInterventions;
        cell.telemetry.merge(result.telemetry);
    }
    return cell;
}

namespace
{

/** The one merge body. @p Cell is `const CellMeasurement` (runs are
 *  copied into the report) or `CellMeasurement` (runs are moved). */
template <typename Cell>
void
mergeCell(CharacterizationReport &report, LedgerView &view, Cell &cell)
{
    if (cell.runs.empty()) {
        // Extreme hostility can lose a whole cell to the
        // management plane. Degrade: account the loss, omit
        // the cell, keep sweeping. (The empty cell was
        // journaled, so a resume will not redo it.)
        util::warnf("characterize: every run of ", cell.workloadId,
                    " on core ", cell.core,
                    " was lost to management faults; "
                    "cell omitted from the report");
        report.watchdogInterventions += cell.watchdogInterventions;
        report.telemetry.merge(cell.telemetry);
        return;
    }

    view.addAll(cell.runs);
    report.totalRuns += cell.runs.size();
    // A move_iterator over const runs copies them.
    report.allRuns.insert(report.allRuns.end(),
                          std::make_move_iterator(cell.runs.begin()),
                          std::make_move_iterator(cell.runs.end()));
    report.watchdogInterventions += cell.watchdogInterventions;
    report.telemetry.merge(cell.telemetry);
}

} // namespace

void
mergeCellIntoReport(CharacterizationReport &report, LedgerView &view,
                    const CellMeasurement &cell)
{
    mergeCell(report, view, cell);
}

void
mergeCellIntoReport(CharacterizationReport &report, LedgerView &view,
                    CellMeasurement &&cell)
{
    mergeCell(report, view, cell);
}

namespace
{

/** Where a planned cell's measurement comes from. */
enum class Source { Fresh, Journal, Cache };

/** One (chip, workload, core) cell of the sweep, in plan order. */
struct PlanEntry
{
    size_t chip = 0; ///< index into the prototypes
    const wl::WorkloadProfile *workload = nullptr;
    CoreId core = 0;
    Source source = Source::Fresh;

    /** A fresh cell's measurement, moved into the report at merge.
     *  Replayed cells are not copied here: the merge takes them out
     *  of the journal (or copies them from the cache). */
    CellMeasurement measured;

    /** A replayed cell's run count, so the merge can size its
     *  report before taking the cell. */
    size_t servedRuns = 0;
};

/** The executor's telemetry handles, fetched once per sweep. */
struct ExecutorStats
{
    obs::Registry &reg = obs::Registry::global();
    obs::Counter &cellsPlanned =
        reg.counter("executor.cells_planned");
    obs::Counter &cellsFresh = reg.counter("executor.cells_fresh");
    obs::Counter &cellsFromJournal =
        reg.counter("executor.cells_from_journal");
    obs::Counter &cellsFromCache = reg.counter("executor.cache_hits");
    obs::Counter &cacheMisses =
        reg.counter("executor.cache_misses");
    obs::SpanStat &planSpan = reg.span("executor.plan");
    obs::SpanStat &executeSpan = reg.span("executor.execute");
    obs::SpanStat &mergeSpan = reg.span("executor.merge");
    obs::SpanStat &cellSpan = reg.span("executor.cell");
    obs::SpanStat &mergeBarrier =
        reg.span("executor.merge_barrier");
};

} // namespace

std::vector<CharacterizationReport>
executeSweep(const std::vector<const sim::Platform *> &prototypes,
             const FrameworkConfig &config,
             const std::string &journal_header,
             const ChipRef &implicit_chip)
{
    ExecutorStats stats;
    // The sink (when enabled) is strictly out-of-band: it reads the
    // registry at deterministic boundaries and never feeds anything
    // back into the reports.
    std::unique_ptr<obs::TelemetrySink> sink;
    if (!config.telemetryPath.empty())
        sink = std::make_unique<obs::TelemetrySink>(
            config.telemetryPath);

    // One journal and one cache serve every chip; the ledger index
    // keys cells by chip. The flush knobs shape durability, never
    // measurements, so they are absent from the header and hashes.
    std::unique_ptr<CampaignJournal> journal;
    if (!config.journalPath.empty()) {
        journal = std::make_unique<CampaignJournal>(
            config.journalPath, config.writeOptions());
        journal->open(journal_header, implicit_chip);
    }
    std::unique_ptr<CellResultCache> cache;
    std::vector<Seed> config_hashes(prototypes.size(), 0);
    if (!config.cachePath.empty()) {
        cache = std::make_unique<CellResultCache>(
            config.cachePath, config.writeOptions());
        cache->open();
        for (size_t i = 0; i < prototypes.size(); ++i)
            config_hashes[i] = cellConfigHash(config, *prototypes[i]);
    }

    // Journal first, then cache; records the entry's source. Appends
    // only add cells that were not found, so the answer is the same
    // at plan time and at merge time.
    const auto lookup =
        [&](PlanEntry &entry) -> const CellMeasurement * {
        const ChipRef chip = chipRefOf(*prototypes[entry.chip]);
        const std::string id = entry.workload->id();
        const CellMeasurement *served = nullptr;
        if (journal && (served = journal->find(chip, id, entry.core)))
            entry.source = Source::Journal;
        else if (cache &&
                 (served = cache->find(config_hashes[entry.chip],
                                       chip, id, entry.core)))
            entry.source = Source::Cache;
        if (served)
            entry.servedRuns = served->runs.size();
        return served;
    };

    // ---- plan: chip-major, workload-major, core-minor -------------
    // The cell budget counts fresh cells across all chips and stops
    // the plan exactly where a sequential walk would have stopped;
    // returns false when it did.
    std::vector<PlanEntry> plan;
    plan.reserve(prototypes.size() * config.workloads.size() *
                 config.cores.size());
    int fresh_cells = 0;
    const auto planCells = [&] {
        for (size_t chip = 0; chip < prototypes.size(); ++chip) {
            for (const auto &workload : config.workloads) {
                for (const CoreId core : config.cores) {
                    PlanEntry entry;
                    entry.chip = chip;
                    entry.workload = &workload;
                    entry.core = core;
                    if (lookup(entry)) {
                        if (entry.source == Source::Journal)
                            stats.cellsFromJournal.inc();
                        else
                            stats.cellsFromCache.inc();
                    } else if (config.cellBudget > 0 &&
                               fresh_cells >= config.cellBudget) {
                        return false; // a later call resumes here
                    } else {
                        if (cache)
                            stats.cacheMisses.inc();
                        ++fresh_cells;
                    }
                    plan.push_back(std::move(entry));
                }
            }
        }
        return true;
    };
    bool complete = true;
    {
        obs::ScopedSpan planning(stats.planSpan);
        complete = planCells();
    }
    stats.cellsPlanned.inc(plan.size());
    stats.cellsFresh.inc(static_cast<uint64_t>(fresh_cells));

    // ---- execute: fresh cells fan out across the pool -------------
    // Each task measures on a brand-new replica of its chip's
    // prototype, so workers share no cross-cell state (RNG, thermal,
    // SLIMpro, fault streams). Appends are write-ahead, per finished
    // cell, in completion order, under the journal's/cache's locks.
    // One worker measures the cells as one task in plan order, so a
    // one-worker journal has one cell order. The task stays on the
    // pool's thread: on the caller's thread (glibc's main arena) the
    // per-cell replicas took ~3x the minor page faults and a
    // one-worker sweep ~15% more wall time.
    {
        obs::ScopedSpan executing(stats.executeSpan);
        const auto measure = [&](PlanEntry &e) {
            obs::ScopedSpan cellSpan(stats.cellSpan);
            auto replica = prototypes[e.chip]->freshReplica();
            CampaignRunner runner(replica.get());
            e.measured =
                measureCellWith(runner, *e.workload, e.core, config);
            e.measured.chip = chipRefOf(*prototypes[e.chip]);
            if (journal)
                journal->append(e.measured);
            if (cache)
                cache->put(config_hashes[e.chip], e.measured);
        };
        util::ThreadPool pool(config.workers);
        if (pool.workerCount() == 1) {
            pool.submit([&] {
                for (PlanEntry &entry : plan)
                    if (entry.source == Source::Fresh)
                        measure(entry);
            });
        } else {
            for (PlanEntry &entry : plan)
                if (entry.source == Source::Fresh)
                    pool.submit([&, e = &entry] { measure(*e); });
        }
        {
            obs::ScopedSpan barrier(stats.mergeBarrier);
            pool.wait();
        }
        // Merge barrier doubles as the durability barrier: a batched
        // group-commit policy drains here, so everything measured
        // this session is on disk before the reports are assembled.
        if (journal)
            journal->flush();
        if (cache)
            cache->flush();
    }
    if (sink)
        sink->flush(); // all execute-phase counters are booked

    // ---- merge: plan order, independent of completion -------------
    // One LedgerView per chip; cells keep first-seen (= plan) order
    // and deriveAll() reads back in that order, so each report is
    // byte-identical for any worker count. Each run is moved into
    // its report: fresh cells out of the plan, replayed cells out of
    // the journal (destroyed right after); cache-served cells are
    // copied.
    std::vector<CharacterizationReport> reports(prototypes.size());
    {
        obs::ScopedSpan merging(stats.mergeSpan);
        auto entry = plan.begin();
        for (size_t chip = 0; chip < prototypes.size(); ++chip) {
            CharacterizationReport &report = reports[chip];
            report.chipName = prototypes[chip]->chip().name();
            report.corner = prototypes[chip]->chip().corner();
            report.frequency = config.frequency;
            report.complete = complete;
            LedgerView view(config.weights);
            const ChipRef chip_ref = chipRefOf(*prototypes[chip]);
            const auto chip_end = std::find_if(
                entry, plan.end(),
                [chip](const PlanEntry &e) { return e.chip != chip; });
            size_t runs = 0;
            for (auto e = entry; e != chip_end; ++e)
                runs += e->source == Source::Fresh ? e->measured.runs.size()
                                                   : e->servedRuns;
            report.allRuns.reserve(runs);
            for (; entry != chip_end; ++entry) {
                switch (entry->source) {
                case Source::Fresh:
                    mergeCellIntoReport(report, view,
                                        std::move(entry->measured));
                    break;
                case Source::Journal:
                    // The plan found the cell and holds no repeats.
                    mergeCellIntoReport(
                        report, view,
                        journal
                            ->take(chip_ref, entry->workload->id(),
                                   entry->core)
                            .value());
                    break;
                case Source::Cache:
                    mergeCellIntoReport(report, view, *lookup(*entry));
                    break;
                }
            }
            view.deriveAll(config.workers);
            report.cells = view.cellResults();
        }
        journal.reset();
    }

    // The sink's destructor would drain too, but an explicit final
    // flush keeps the line count deterministic (plan+execute line,
    // end-of-run line) before any caller-side snapshots.
    if (sink)
        sink->flush();
    return reports;
}

CampaignExecutor::CampaignExecutor(sim::Platform *prototype)
    : prototype_(prototype)
{
    if (!prototype_)
        util::panicf("CampaignExecutor: null platform");
}

CharacterizationReport
CampaignExecutor::run(const FrameworkConfig &config)
{
    return std::move(
        executeSweep({prototype_}, config,
                     journalHeaderFor(config, *prototype_),
                     chipRefOf(*prototype_))
            .front());
}

} // namespace vmargin
