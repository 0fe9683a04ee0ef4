#include "framework.hh"

#include <cstdlib>
#include <memory>

#include "executor.hh"
#include "resultstore.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/strings.hh"
#include "workloads/spec.hh"

namespace vmargin
{

FrameworkConfig
FrameworkConfig::fromConfig(const util::ConfigFile &file)
{
    FrameworkConfig config;

    if (file.has("workloads")) {
        for (const auto &id : file.getList("workloads"))
            config.workloads.push_back(wl::findWorkload(id));
    } else {
        config.workloads = wl::headlineSuite();
    }

    config.cores.clear();
    if (file.has("cores")) {
        for (const auto &token : file.getList("cores"))
            config.cores.push_back(util::narrowInt<CoreId>(
                util::parseLong(token, "config key 'cores'"),
                "config key 'cores'"));
    } else {
        for (CoreId c = 0; c < 8; ++c)
            config.cores.push_back(c);
    }

    // Every integer key narrows through util::narrowInt, so a value
    // outside its field's type is refused instead of wrapping.
    const auto intKey = [&file](const char *key, auto fallback) {
        return util::narrowInt<decltype(fallback)>(
            file.getInt(key, fallback),
            util::concat("config key '", key, "'"));
    };
    config.frequency = intKey("frequency_mhz", config.frequency);
    config.startVoltage = intKey("start_mv", config.startVoltage);
    config.endVoltage = intKey("end_mv", config.endVoltage);
    config.campaigns = intKey("campaigns", config.campaigns);
    config.runsPerVoltage =
        intKey("runs_per_voltage", config.runsPerVoltage);
    config.maxEpochs = intKey("max_epochs", config.maxEpochs);
    config.journalPath = file.get("journal", config.journalPath);
    config.cellBudget = intKey("cell_budget", config.cellBudget);
    config.workers = intKey("workers", config.workers);
    config.cachePath = file.get("cache", config.cachePath);
    config.telemetryPath =
        file.get("telemetry", config.telemetryPath);
    config.flushEveryCells =
        intKey("flush_every_cells", config.flushEveryCells);
    config.flushIntervalMs =
        intKey("flush_interval_ms", config.flushIntervalMs);
    config.validate();
    return config;
}

void
FrameworkConfig::validate() const
{
    if (workloads.empty())
        util::fatalError("framework: empty workload list — "
                         "configure at least one benchmark");
    if (cores.empty())
        util::fatalError("framework: empty core list — configure at "
                         "least one core id");
    if (frequency < 1)
        util::fatalError("framework: frequency_mhz must be >= 1 "
                         "(got " +
                         std::to_string(frequency) + ")");
    if (campaigns < 1)
        util::fatalError("framework: campaigns must be >= 1 (got " +
                         std::to_string(campaigns) + ")");
    if (runsPerVoltage < 1)
        util::fatalError(
            "framework: runs_per_voltage must be >= 1 (got " +
            std::to_string(runsPerVoltage) + ")");
    if (maxEpochs < 1)
        util::fatalError("framework: max_epochs must be >= 1");
    if (startVoltage < endVoltage)
        util::fatalError(
            "framework: inverted voltage range — the sweep descends, "
            "so end_mv (" +
            std::to_string(endVoltage) +
            ") must not exceed start_mv (" +
            std::to_string(startVoltage) + ")");
    if (cellBudget < 0)
        util::fatalError("framework: cell_budget must be >= 0 "
                         "(got " +
                         std::to_string(cellBudget) + ")");
    if (workers < 0)
        util::fatalError("framework: workers must be >= 0 (got " +
                         std::to_string(workers) + ")");
    if (flushEveryCells < 1)
        util::fatalError(
            "framework: flush_every_cells must be >= 1 (got " +
            std::to_string(flushEveryCells) + ")");
    if (flushIntervalMs < 0)
        util::fatalError(
            "framework: flush_interval_ms must be >= 0 (got " +
            std::to_string(flushIntervalMs) + ")");
    retryPolicy.validate();
    weights.validate();
    // A repeat would plan (and merge) the same cell twice.
    for (size_t i = 0; i < workloads.size(); ++i) {
        workloads[i].validate();
        for (size_t j = i + 1; j < workloads.size(); ++j)
            if (workloads[i].id() == workloads[j].id())
                util::fatalError("framework: workload " +
                                 workloads[i].id() +
                                 " is listed twice");
    }
    for (size_t i = 0; i < cores.size(); ++i)
        for (size_t j = i + 1; j < cores.size(); ++j)
            if (cores[i] == cores[j])
                util::fatalError("framework: core " +
                                 std::to_string(cores[i]) +
                                 " is listed twice");
}

const CellResult &
CharacterizationReport::cell(const std::string &workload_id,
                             CoreId core) const
{
    for (const auto &c : cells)
        if (c.workloadId == workload_id && c.core == core)
            return c;
    util::panicf("CharacterizationReport: no cell for ", workload_id,
                 " core ", core);
}

MilliVolt
CharacterizationReport::bestCoreVmin(
    const std::string &workload_id) const
{
    MilliVolt best = 0;
    bool found = false;
    for (const auto &c : cells) {
        if (c.workloadId != workload_id)
            continue;
        if (!found || c.analysis.vmin < best)
            best = c.analysis.vmin;
        found = true;
    }
    if (!found)
        util::panicf("CharacterizationReport: workload ", workload_id,
                     " not characterized");
    return best;
}

double
CharacterizationReport::averageVmin(
    const std::string &workload_id) const
{
    double sum = 0.0;
    int count = 0;
    for (const auto &c : cells) {
        if (c.workloadId != workload_id)
            continue;
        sum += static_cast<double>(c.analysis.vmin);
        ++count;
    }
    if (!count)
        util::panicf("CharacterizationReport: workload ", workload_id,
                     " not characterized");
    return sum / count;
}

std::string
CharacterizationReport::toCsv() const
{
    std::string out;
    appendRunCsv(out, allRuns);
    return out;
}

CharacterizationFramework::CharacterizationFramework(
    sim::Platform *platform)
    : platform_(platform), runner_(platform)
{
    if (!platform_)
        util::panicf("CharacterizationFramework: null platform");
}

CellMeasurement
CharacterizationFramework::measureCell(
    const wl::WorkloadProfile &workload, CoreId core,
    const FrameworkConfig &config)
{
    CellMeasurement cell =
        measureCellWith(runner_, workload, core, config);
    cell.chip = chipRefOf(*platform_);
    return cell;
}

CellResult
CharacterizationFramework::characterizeCell(
    const wl::WorkloadProfile &workload, CoreId core,
    const FrameworkConfig &config)
{
    config.validate();
    const CellMeasurement measured =
        measureCell(workload, core, config);
    if (measured.runs.empty())
        util::fatalError("characterizeCell: every run of " +
                         workload.id() + " on core " +
                         std::to_string(core) +
                         " was lost to management faults");

    CellResult cell;
    cell.workloadId = workload.id();
    cell.core = core;
    cell.analysis = analyzeRegions(measured.runs, workload.id(),
                                   core, config.weights);
    // Stash the runs in the analysis' map only; callers wanting raw
    // rows use CharacterizationReport::allRuns.
    return cell;
}

CharacterizationReport
CharacterizationFramework::characterize(const FrameworkConfig &config)
{
    config.validate();
    // The executor fans the (workload, core) cells out across a
    // work-stealing pool, one fresh platform replica per in-flight
    // cell, and merges in canonical order — see core/executor.
    CampaignExecutor executor(platform_);
    return executor.run(config);
}

} // namespace vmargin
