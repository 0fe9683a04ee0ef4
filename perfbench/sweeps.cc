/**
 * @file
 * The two sweep workloads.
 *
 * sweep_cold: CharacterizationFramework::characterize on one chip,
 * every cell fresh — the engineer's daily run. One op is one fresh
 * (workload, core) cell; a batch is one characterize() call over one
 * workload's cells, and ten batches make the whole sweep.
 *
 * resume_replay: FleetExecutor::run on a four-chip fleet whose every
 * cell is already in the shared journal — ledger replay, planning
 * copies, merge, LedgerView derivation and report emission do all
 * the work. One op is one cell delivered; a batch is one whole run.
 *
 * The traced variants rebuild each pipeline from the library's public
 * calls (the executor's plan -> execute -> merge -> derive -> emit
 * steps, in its order and with its arguments) so that a span can sit
 * around every call, and must reproduce the untraced output hash.
 */

#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>

#include "bench.hh"
#include "core/executor.hh"
#include "core/fleet.hh"
#include "core/framework.hh"
#include "core/resultstore.hh"
#include "obs/metrics.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/threadpool.hh"
#include "workloads/spec.hh"

namespace vmbench
{

using namespace vmargin;

namespace
{

std::string
workPath(const Options &options, const std::string &file)
{
    std::filesystem::create_directories(options.workdir);
    return options.workdir + "/" + file;
}

/** The obs counters a traced batch reads as deltas. */
struct LibraryCounters
{
    uint64_t appendBytes = 0;
    uint64_t flushBatches = 0;
    uint64_t replayFrames = 0;
    uint64_t poolIdleNs = 0;
    uint64_t poolSteals = 0;

    static LibraryCounters now()
    {
        obs::Registry &reg = obs::Registry::global();
        LibraryCounters c;
        c.appendBytes = reg.counter("ledger.append_bytes").value();
        c.flushBatches =
            reg.counter("ledger.flush_batches", obs::Stability::Sched)
                .value();
        c.replayFrames = reg.counter("ledger.replay_frames").value();
        c.poolIdleNs =
            reg.counter("threadpool.idle_ns", obs::Stability::Sched)
                .value();
        c.poolSteals =
            reg.counter("threadpool.steals", obs::Stability::Sched)
                .value();
        return c;
    }

    LibraryCounters since(const LibraryCounters &before) const
    {
        LibraryCounters d;
        d.appendBytes = appendBytes - before.appendBytes;
        d.flushBatches = flushBatches - before.flushBatches;
        d.replayFrames = replayFrames - before.replayFrames;
        d.poolIdleNs = poolIdleNs - before.poolIdleNs;
        d.poolSteals = poolSteals - before.poolSteals;
        return d;
    }
};

/** Exact simulation counts of one batch, from its run records. */
struct SimCounts
{
    uint64_t runs = 0;
    uint64_t epochs = 0;
    double simulatedSeconds = 0.0;
    uint64_t abnormal = 0;

    void add(const std::vector<RunLogRecord> &records)
    {
        for (const RunLogRecord &record : records) {
            ++runs;
            epochs += record.run.epochsExecuted;
            simulatedSeconds += record.run.simulatedSeconds;
            abnormal += record.run.abnormal() ? 1 : 0;
        }
    }
};

/** What one traced batch measured beyond its spans. */
struct TracedBatch
{
    std::string hash;
    uint64_t cells = 0;
    uint64_t reportBytes = 0;
    uint64_t journalBytes = 0;
    SimCounts sim;
    LibraryCounters counters;
};

/**
 * Per-layer metrics common to both sweeps, from the traced batches.
 * The batches cycle through @p kinds kinds, so the first @p kinds
 * batches are one whole pass over the workload's inputs: exact counts
 * come from that pass, times are per pass or per cell over all
 * batches.
 */
std::vector<Metric>
sweepLayerMetrics(const Trace &trace,
                  const std::vector<TracedBatch> &batches, size_t kinds,
                  double overhead)
{
    TracedBatch pass;
    for (size_t i = 0; i < kinds; ++i) {
        const TracedBatch &batch = batches[i];
        pass.sim.runs += batch.sim.runs;
        pass.sim.epochs += batch.sim.epochs;
        pass.sim.simulatedSeconds += batch.sim.simulatedSeconds;
        pass.sim.abnormal += batch.sim.abnormal;
        pass.reportBytes += batch.reportBytes;
        pass.counters.appendBytes += batch.counters.appendBytes;
        pass.counters.flushBatches += batch.counters.flushBatches;
        pass.counters.replayFrames += batch.counters.replayFrames;
        pass.counters.poolIdleNs += batch.counters.poolIdleNs;
        pass.counters.poolSteals += batch.counters.poolSteals;
    }
    double cells = 0.0;
    double epochs = 0.0;
    double journal_bytes = 0.0;
    for (const TracedBatch &batch : batches) {
        cells += static_cast<double>(batch.cells);
        epochs += static_cast<double>(batch.sim.epochs);
        journal_bytes += static_cast<double>(batch.journalBytes);
    }
    const double passes = static_cast<double>(batches.size()) /
                          static_cast<double>(kinds);
    const auto per_pass_ms = [&](const char *name) {
        return 1e3 * trace.selfSeconds(name) / passes;
    };
    const double campaign_s = trace.selfSeconds("core.campaign");
    const double replay_s = trace.selfSeconds("ledger.replay");
    return {
        {"core.campaign_ms_per_cell", 1e3 * campaign_s / cells, "ms"},
        {"sim.host_ns_per_epoch",
         epochs > 0.0 ? 1e9 * campaign_s / epochs : 0.0, "ns"},
        {"sim.replica_ms_per_cell",
         1e3 * trace.selfSeconds("sim.replica") / cells, "ms"},
        {"sim.runs", static_cast<double>(pass.sim.runs), "count"},
        {"sim.epochs", static_cast<double>(pass.sim.epochs), "count"},
        {"sim.simulated_s", pass.sim.simulatedSeconds, "s"},
        {"core.abnormal_runs", static_cast<double>(pass.sim.abnormal),
         "count"},
        {"ledger.append_ms_per_cell",
         1e3 *
             (trace.selfSeconds("ledger.append") +
              trace.selfSeconds("ledger.flush")) /
             cells,
         "ms"},
        {"ledger.append_bytes",
         static_cast<double>(pass.counters.appendBytes), "bytes"},
        {"ledger.flush_batches",
         static_cast<double>(pass.counters.flushBatches), "count"},
        {"ledger.replay_ms", per_pass_ms("ledger.replay"), "ms"},
        {"ledger.replay_mb_per_s",
         replay_s > 0.0 ? journal_bytes / (1024.0 * 1024.0) / replay_s
                        : 0.0,
         "MB/s"},
        {"ledger.replay_frames",
         static_cast<double>(pass.counters.replayFrames), "count"},
        {"ledger.close_ms", per_pass_ms("ledger.close"), "ms"},
        {"core.plan_ms", per_pass_ms("core.plan"), "ms"},
        {"core.merge_ms", per_pass_ms("core.merge"), "ms"},
        {"core.derive_ms", per_pass_ms("core.derive"), "ms"},
        {"core.emit_ms", per_pass_ms("core.emit"), "ms"},
        {"core.release_ms", per_pass_ms("core.release"), "ms"},
        {"core.report_bytes", static_cast<double>(pass.reportBytes),
         "bytes"},
        {"util.pool_idle_ms",
         1e-6 * static_cast<double>(pass.counters.poolIdleNs), "ms"},
        {"util.pool_steals",
         static_cast<double>(pass.counters.poolSteals), "count"},
        {"trace.coverage", trace.coverage(), "ratio"},
        {"trace.overhead", overhead, "ratio"},
    };
}

uint64_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<uint64_t>(size);
}

/**
 * One cell measured through the public calls measureCellWith makes:
 * a fresh replica, then CampaignRunner::run per campaign repetition,
 * with a span around each.
 */
CellMeasurement
tracedCell(Trace &trace, const sim::Platform &prototype,
           const wl::WorkloadProfile &workload, CoreId core,
           const FrameworkConfig &config, SimCounts &sim)
{
    std::unique_ptr<sim::Platform> replica;
    std::optional<CampaignRunner> runner;
    {
        Trace::Scope span(trace, "sim.replica");
        replica = prototype.freshReplica();
        runner.emplace(replica.get());
    }
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
        std::optional<CampaignResult> result;
        {
            Trace::Scope span(trace, "core.campaign");
            result.emplace(runner->run(campaign));
        }
        Trace::Scope span(trace, "core.assemble");
        sim.add(result->records);
        if (cell.runs.empty()) {
            cell.runs.reserve(result->runs.size() *
                              static_cast<size_t>(config.campaigns));
            cell.records.reserve(result->records.size() *
                                 static_cast<size_t>(config.campaigns));
        }
        cell.runs.insert(cell.runs.end(), result->runs.begin(),
                         result->runs.end());
        cell.records.insert(cell.records.end(),
                            result->records.begin(),
                            result->records.end());
        cell.watchdogInterventions += result->watchdogInterventions;
        cell.telemetry.merge(result->telemetry);
        result.reset();
    }
    Trace::Scope span(trace, "sim.replica");
    runner.reset();
    replica.reset();
    return cell;
}

// ---- sweep_cold ---------------------------------------------------

FrameworkConfig
coldConfig(const Options &options)
{
    FrameworkConfig config; // paper protocol: 930 -> 845 mV, 10 campaigns
    config.workloads = wl::headlineSuite();
    config.cores = {0, 1, 2, 3, 4, 5, 6, 7};
    if (options.smoke) {
        config.workloads.resize(2);
        config.cores = {0, 4};
        config.campaigns = 3;
    }
    config.workers = 1;
    config.journalPath = workPath(options, "sweep_cold.journal");
    return config;
}

/** One untraced sweep; returns the report's hash. */
std::string
coldSweep(sim::Platform &prototype, const FrameworkConfig &config)
{
    std::remove(config.journalPath.c_str());
    CharacterizationFramework framework(&prototype);
    const CharacterizationReport report = framework.characterize(config);
    return hexHash(util::hashSeed(serializeReport(report)));
}

/** One traced sweep: CampaignExecutor::run at one worker, call by
 *  call. */
TracedBatch
tracedColdSweep(Trace &trace, const sim::Platform &prototype,
                const FrameworkConfig &config)
{
    std::remove(config.journalPath.c_str());
    const LibraryCounters before = LibraryCounters::now();
    TracedBatch batch;
    Trace::Scope op(trace, "op");
    config.validate();
    CharacterizationReport report;
    report.chipName = prototype.chip().name();
    report.corner = prototype.chip().corner();
    report.frequency = config.frequency;
    const ChipRef chip = chipRefOf(prototype);

    std::optional<CampaignJournal> journal;
    {
        Trace::Scope span(trace, "ledger.replay");
        journal.emplace(config.journalPath, config.writeOptions());
        journal->open(journalHeaderFor(config, prototype), chip);
    }

    std::vector<CellMeasurement> measured;
    measured.reserve(config.workloads.size() * config.cores.size());
    for (const auto &workload : config.workloads)
        for (const CoreId core : config.cores) {
            {
                Trace::Scope span(trace, "core.plan");
                if (journal->find(chip, workload.id(), core))
                    util::panicf("sweep_cold: cell already journaled");
            }
            CellMeasurement cell = tracedCell(trace, prototype, workload,
                                              core, config, batch.sim);
            cell.chip = chip;
            {
                Trace::Scope span(trace, "ledger.append");
                journal->append(cell);
            }
            measured.push_back(std::move(cell));
        }
    {
        Trace::Scope span(trace, "ledger.flush");
        journal->flush();
    }
    {
        Trace::Scope span(trace, "ledger.close");
        journal.reset();
    }

    std::string bytes;
    {
        Trace::Scope span(trace, "core.merge");
        LedgerView view(config.weights);
        for (const CellMeasurement &cell : measured)
            mergeCellIntoReport(report, view, cell);
        Trace::Scope derive(trace, "core.derive");
        view.deriveAll(config.workers);
        report.cells = view.cellResults();
    }
    {
        Trace::Scope span(trace, "core.emit");
        bytes = serializeReport(report);
    }
    {
        Trace::Scope span(trace, "core.release");
        measured.clear();
        report = {};
    }
    {
        // The benchmark's own output check, timed in both modes.
        Trace::Scope span(trace, "check.hash");
        batch.hash = hexHash(util::hashSeed(bytes));
    }
    batch.cells = config.workloads.size() * config.cores.size();
    batch.reportBytes = bytes.size();
    batch.counters = LibraryCounters::now().since(before);
    return batch;
}

// ---- resume_replay ------------------------------------------------

FleetConfig
replayConfig(const Options &options)
{
    const uint32_t serial = serialFor(options.seed);
    FleetConfig config;
    // TTT/TFF/TSS — the paper's three corners — plus a second
    // typical part.
    config.chips = {{sim::ChipCorner::TTT, serial},
                    {sim::ChipCorner::TFF, serial + 1},
                    {sim::ChipCorner::TSS, serial + 2},
                    {sim::ChipCorner::TTT, serial + 3}};
    config.framework.workloads = wl::headlineSuite();
    config.framework.cores = {0, 1, 2, 3, 4, 5, 6, 7};
    config.framework.campaigns = 10;
    config.framework.maxEpochs = 4; // short epochs: the journal, not
                                    // the kernel, is the subject
    if (options.smoke) {
        config.chips.resize(2);
        config.framework.workloads.resize(2);
        config.framework.cores = {0, 4};
        config.framework.campaigns = 3;
    }
    config.framework.workers = 2;
    config.framework.journalPath =
        workPath(options, "resume_replay.journal");
    return config;
}

/** One untraced fleet run; returns the report's hash. */
std::string
fleetRun(sim::Platform &tmpl, const FleetConfig &config)
{
    FleetExecutor executor(&tmpl);
    const FleetReport report = executor.run(config);
    return hexHash(util::hashSeed(report.serialize()));
}

/** One traced fleet run: FleetExecutor::run call by call, every cell
 *  served from the journal. */
TracedBatch
tracedFleetRun(Trace &trace, const sim::Platform &tmpl,
               const FleetConfig &config)
{
    const LibraryCounters before = LibraryCounters::now();
    const FrameworkConfig &fw = config.framework;
    TracedBatch batch;
    batch.journalBytes = fileBytes(fw.journalPath);
    Trace::Scope op(trace, "op");

    std::vector<ChipRef> chips;
    std::vector<std::unique_ptr<sim::Platform>> prototypes;
    {
        Trace::Scope span(trace, "sim.replica");
        config.validate();
        chips = config.canonicalChips();
        for (const ChipRef &chip : chips)
            prototypes.push_back(
                tmpl.freshReplica(chip.corner, chip.serial));
    }

    std::optional<CampaignJournal> journal;
    {
        Trace::Scope span(trace, "ledger.replay");
        journal.emplace(fw.journalPath, fw.writeOptions());
        journal->open(fleetJournalHeaderFor(config, tmpl));
    }

    struct Served
    {
        size_t chipIndex;
        CellMeasurement cell;
    };
    std::vector<Served> plan;
    {
        Trace::Scope span(trace, "core.plan");
        plan.reserve(chips.size() * fw.workloads.size() *
                     fw.cores.size());
        for (size_t ci = 0; ci < chips.size(); ++ci)
            for (const auto &workload : fw.workloads)
                for (const CoreId core : fw.cores) {
                    const CellMeasurement *served =
                        journal->find(chips[ci], workload.id(), core);
                    if (!served)
                        util::panicf("resume_replay: cell ",
                                     workload.id(), "/", core, " on ",
                                     chips[ci].name(),
                                     " missing from the journal");
                    plan.push_back({ci, *served});
                }
    }
    {
        // The executor starts its pool even with nothing to run.
        Trace::Scope span(trace, "util.pool");
        util::ThreadPool pool(fw.workers);
        pool.wait();
    }
    {
        Trace::Scope span(trace, "ledger.flush");
        journal->flush();
    }
    {
        Trace::Scope span(trace, "ledger.close");
        journal.reset();
    }

    FleetReport fleet;
    fleet.frequency = fw.frequency;
    fleet.nominalMv = tmpl.chip().params().nominalPmdVoltage;
    for (size_t ci = 0; ci < chips.size(); ++ci) {
        Trace::Scope span(trace, "core.merge");
        FleetChipReport entry;
        entry.chip = chips[ci];
        entry.report.chipName = prototypes[ci]->chip().name();
        entry.report.corner = chips[ci].corner;
        entry.report.frequency = fw.frequency;
        LedgerView view(fw.weights);
        for (const Served &served : plan)
            if (served.chipIndex == ci)
                mergeCellIntoReport(entry.report, view, served.cell);
        Trace::Scope derive(trace, "core.derive");
        view.deriveAll(fw.workers);
        entry.report.cells = view.cellResults();
        fleet.chips.push_back(std::move(entry));
    }
    std::string bytes;
    {
        Trace::Scope span(trace, "core.emit");
        bytes = fleet.serialize();
    }
    {
        Trace::Scope span(trace, "core.release");
        plan.clear();
        prototypes.clear();
        fleet = {};
    }
    {
        // The benchmark's own output check, timed in both modes.
        Trace::Scope span(trace, "check.hash");
        batch.hash = hexHash(util::hashSeed(bytes));
    }
    batch.cells = chips.size() * fw.workloads.size() * fw.cores.size();
    batch.reportBytes = bytes.size();
    batch.counters = LibraryCounters::now().since(before);
    return batch;
}

/**
 * The shared shape of both sweep workloads: set-up repeated and
 * timed, then either the untraced closed loop or, with --trace 1, a
 * short untraced loop (for the overhead ratio) and the traced loop.
 * Batch i is of kind i % kinds.
 */
template <typename Setup, typename Op, typename TracedOp>
RunResult
runSweep(const Options &options, const char *name, size_t kinds,
         Setup setup, Op op, TracedOp traced_op)
{
    std::vector<double> setups;
    for (int i = 0; i < setupRepeats(options); ++i) {
        const Clock::time_point begin = Clock::now();
        setup();
        setups.push_back(secondsBetween(begin, Clock::now()));
    }

    OutputCheck check(options.expectHash, kinds);
    const size_t min_batches = kMinBatches * kinds;
    const std::vector<Batch> batches = closedLoop(
        options.trace ? options.seconds / 2 : options.seconds,
        min_batches, [&](size_t index) {
            Batch batch;
            batch.kind = index % kinds;
            const std::string hash = op(batch.kind, batch.ops);
            check.record(batch.kind, batch.ops, hash);
            return batch;
        });

    RunResult result;
    if (!options.trace) {
        result.metrics = {
            {"ops_per_s", bestRate(batches), "1/s"},
            {"setup_s", median(setups), "s"},
            {"peak_rss_mb", peakRssMb(), "MiB"},
        };
    } else {
        Trace trace;
        std::vector<TracedBatch> traced;
        const std::vector<Batch> traced_batches = closedLoop(
            options.seconds / 2, min_batches, [&](size_t index) {
                Batch batch;
                batch.kind = index % kinds;
                traced.push_back(traced_op(trace, batch.kind));
                batch.ops = traced.back().cells;
                check.record(batch.kind, batch.ops, traced.back().hash);
                return batch;
            });
        trace.printShares();
        trace.writeJsonl(workPath(options, std::string(name) +
                                               ".trace.jsonl"));
        result.metrics = sweepLayerMetrics(
            trace, traced, kinds,
            bestRate(batches) / bestRate(traced_batches));
    }
    result.attempted = check.attempted();
    result.failed = check.failed();
    result.outputHash = check.hash();
    return result;
}

} // namespace

RunResult
runSweepCold(const Options &options)
{
    // The sweep is issued one workload at a time — one characterize()
    // call over the workload's cells on every sweep core — so that a
    // run holds many short, identical batches to take the fastest of.
    const FrameworkConfig sweep = coldConfig(options);
    std::vector<FrameworkConfig> calls;
    for (const auto &workload : sweep.workloads) {
        calls.push_back(sweep);
        calls.back().workloads = {workload};
    }
    std::unique_ptr<sim::Platform> prototype;
    return runSweep(
        options, "sweep_cold", calls.size(),
        [&] {
            // The prototype, then an untimed warm-up: the first
            // workload's cells, journal on.
            prototype = std::make_unique<sim::Platform>(
                sim::XGene2Params{}, sim::ChipCorner::TTT,
                serialFor(options.seed));
            coldSweep(*prototype, calls.front());
        },
        [&](size_t kind, uint64_t &ops) {
            ops = sweep.cores.size();
            return coldSweep(*prototype, calls[kind]);
        },
        [&](Trace &trace, size_t kind) {
            return tracedColdSweep(trace, *prototype, calls[kind]);
        });
}

RunResult
runResumeReplay(const Options &options)
{
    const FleetConfig config = replayConfig(options);
    const uint64_t cells = config.chips.size() *
                           config.framework.workloads.size() *
                           config.framework.cores.size();
    sim::Platform tmpl(sim::XGene2Params{}, sim::ChipCorner::TTT, 1);
    return runSweep(
        options, "resume_replay", 1,
        [&] {
            // Write the shared journal by running the same fleet
            // sweep, every cell fresh.
            std::remove(config.framework.journalPath.c_str());
            fleetRun(tmpl, config);
        },
        [&](size_t, uint64_t &ops) {
            ops = cells;
            return fleetRun(tmpl, config);
        },
        [&](Trace &trace, size_t) {
            return tracedFleetRun(trace, tmpl, config);
        });
}

} // namespace vmbench
