#include "executor.hh"

#include <algorithm>
#include <iterator>
#include <latch>
#include <memory>
#include <optional>
#include <utility>

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

/** The one merge body. @p Cell is `const CellMeasurement` (its run
 *  vector is copied into the report) or `CellMeasurement` (moved, as
 *  one block). Returns false when the cell was lost: every run fell
 *  to the management plane, so only its telemetry was accounted. */
template <typename Cell>
bool
mergeCell(CharacterizationReport &report, LedgerView &view, Cell &cell)
{
    report.watchdogInterventions += cell.watchdogInterventions;
    report.telemetry.merge(cell.telemetry);
    // Extreme hostility can lose a whole cell to the management
    // plane. Degrade: account the loss, omit the cell, keep
    // sweeping. (The empty cell was journaled, so a resume will not
    // redo it.)
    if (cell.runs.empty())
        return false;

    view.addAll(cell.runs);
    // Moving a const vector copies it.
    report.runBlocks.push_back(std::move(cell.runs));
    return true;
}

void
warnLostCell(const std::string &workload_id, CoreId core)
{
    util::warnf("characterize: every run of ", workload_id, " on core ",
                core,
                " was lost to management faults; "
                "cell omitted from the report");
}

} // namespace

void
mergeCellIntoReport(CharacterizationReport &report, LedgerView &view,
                    const CellMeasurement &cell)
{
    if (!mergeCell(report, view, cell))
        warnLostCell(cell.workloadId, cell.core);
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

    /** Set by the merge when every run of the cell was lost. */
    bool lost = false;
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
    obs::SpanStat &replaySpan = reg.span("executor.replay");
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
    // A core outside a chip would be refused per cell, from a worker
    // thread, once the pool and replicas are up: refuse it first.
    for (const sim::Platform *prototype : prototypes)
        for (const CoreId core : config.cores)
            checkCore(*prototype, core, "characterize");

    ExecutorStats stats;
    // The sink (when enabled) is strictly out-of-band: it reads the
    // registry at deterministic boundaries and never feeds anything
    // back into the reports.
    std::unique_ptr<obs::TelemetrySink> sink;
    if (!config.telemetryPath.empty())
        sink = std::make_unique<obs::TelemetrySink>(
            config.telemetryPath);

    // One pool serves the sweep from replay through merge: the
    // journal and the cache verify and decode their frames on it,
    // the fresh cells are measured on it, and the chips merge on it.
    std::optional<util::ThreadPool> pool(std::in_place, config.workers);

    // One journal and one cache serve every chip; the ledger index
    // keys cells by chip. The flush knobs shape durability, never
    // measurements, so they are absent from the header and hashes.
    std::unique_ptr<CampaignJournal> journal;
    std::unique_ptr<CellResultCache> cache;
    std::vector<Seed> config_hashes(prototypes.size(), 0);
    {
        obs::ScopedSpan replaying(stats.replaySpan);
        if (!config.journalPath.empty()) {
            journal = std::make_unique<CampaignJournal>(
                config.journalPath, config.writeOptions());
            journal->open(journal_header, implicit_chip, &*pool);
        }
        if (!config.cachePath.empty()) {
            cache = std::make_unique<CellResultCache>(
                config.cachePath, config.writeOptions());
            cache->open(&*pool);
            for (size_t i = 0; i < prototypes.size(); ++i)
                config_hashes[i] =
                    cellConfigHash(config, *prototypes[i]);
        }
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
    // A chip's [begin, end) in the plan, which is chip-major; the
    // budget only cuts its tail.
    const size_t chip_cells =
        config.workloads.size() * config.cores.size();
    const auto chipSlice = [&](size_t chip) {
        const size_t begin = std::min(chip * chip_cells, plan.size());
        return std::pair(begin, std::min(begin + chip_cells, plan.size()));
    };

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
        if (pool->workerCount() == 1) {
            pool->submit([&] {
                for (PlanEntry &entry : plan)
                    if (entry.source == Source::Fresh)
                        measure(entry);
            });
        } else {
            for (PlanEntry &entry : plan)
                if (entry.source == Source::Fresh)
                    pool->submit([&, e = &entry] { measure(*e); });
        }
        {
            obs::ScopedSpan barrier(stats.mergeBarrier);
            pool->wait();
        }
        // Merge barrier doubles as the durability barrier: a batched
        // group-commit policy drains here, so everything measured
        // this session is on disk before the reports are assembled.
        if (journal)
            journal->flush();
        if (cache)
            cache->flush();
    }
    // Every execute-phase counter is booked but the pool's idle
    // time, which its workers book as they wake or stop.
    if (sink)
        sink->flush();

    // ---- merge: plan order, independent of completion -------------
    // One LedgerView per chip; cells keep first-seen (= plan) order
    // and deriveAll() reads back in that order, so each report is
    // byte-identical for any worker count. Each cell's run vector
    // moves into its report as one block: fresh cells out of the
    // plan, replayed cells out of the journal (destroyed right
    // after), each at the size replay decoded it; cache-served cells
    // are copied. A chip's report is a pure function of its slice of the
    // plan, so each chip merges and derives on a pool worker,
    // deriving on its share of the workers. Concurrent takes and
    // finds are safe: the ledger lookups hold the ledger's lock, and
    // a cache-served entry's lookup writes only that entry.
    //
    // Task t of at most one per worker merges chips t, t + tasks, ...
    // and waits at a latch until every task has started, so no
    // worker runs two. A report's analyses are allocated by the
    // worker that merges it (its run blocks by the worker that
    // decoded or measured each cell) and live until the caller frees
    // the report, in that thread's malloc arena (glibc keeps one per
    // thread). Were
    // each chip a stealable task of its own, the chips sharing an
    // arena would change from sweep to sweep, and each new
    // combination grows the memory the arenas retain, so peak RSS
    // would drift up over repeated sweeps by a varying amount. The
    // fixed deal keeps each arena's load the same.
    std::vector<CharacterizationReport> reports(prototypes.size());
    {
        obs::ScopedSpan merging(stats.mergeSpan);
        const int derive_workers = std::max(
            1, pool->workerCount() / static_cast<int>(prototypes.size()));
        const auto mergeChip = [&](size_t chip) {
            CharacterizationReport &report = reports[chip];
            report.chipName = prototypes[chip]->chip().name();
            report.corner = prototypes[chip]->chip().corner();
            report.frequency = config.frequency;
            report.complete = complete;
            LedgerView view(config.weights);
            const ChipRef chip_ref = chipRefOf(*prototypes[chip]);
            const auto [begin, end] = chipSlice(chip);
            report.runBlocks.reserve(end - begin);
            for (size_t i = begin; i < end; ++i) {
                PlanEntry &entry = plan[i];
                switch (entry.source) {
                case Source::Fresh:
                    entry.lost = !mergeCell(report, view, entry.measured);
                    break;
                case Source::Journal: {
                    // The plan found the cell and holds no repeats.
                    CellMeasurement cell =
                        journal
                            ->take(chip_ref, entry.workload->id(),
                                   entry.core)
                            .value();
                    entry.lost = !mergeCell(report, view, cell);
                    break;
                }
                case Source::Cache:
                    entry.lost = !mergeCell(report, view, *lookup(entry));
                    break;
                }
            }
            view.deriveAll(derive_workers);
            report.cells = std::move(view).cellResults();
        };
        // No worker is busy here and tasks <= workers, so every task
        // reaches the latch: one that waits never holds another.
        const size_t tasks = std::min(
            prototypes.size(), static_cast<size_t>(pool->workerCount()));
        std::latch started(static_cast<std::ptrdiff_t>(tasks));
        for (size_t task = 0; task < tasks; ++task)
            pool->submit([&, task] {
                started.arrive_and_wait();
                for (size_t chip = task; chip < prototypes.size();
                     chip += tasks)
                    mergeChip(chip);
            });
        pool->wait();
        pool.reset(); // idle workers book their last stretch
        journal.reset();
    }
    // Warnings print after the barrier, chip by chip: its lost cells
    // in plan order, then its censored cells in report order. So
    // stderr is the same for any worker count.
    for (size_t chip = 0; chip < prototypes.size(); ++chip) {
        const auto [begin, end] = chipSlice(chip);
        for (size_t i = begin; i < end; ++i)
            if (plan[i].lost)
                warnLostCell(plan[i].workload->id(), plan[i].core);
        for (const CellResult &cell : reports[chip].cells)
            warnIfCensored(cell.workloadId, cell.core, cell.analysis);
    }

    // The sink's destructor would drain too, but an explicit final
    // flush keeps the line count deterministic (plan+execute line,
    // end-of-run line) before any caller-side snapshots.
    if (sink)
        sink->flush();
    return reports;
}

} // namespace vmargin
