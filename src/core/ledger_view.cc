#include "ledger_view.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/threadpool.hh"

namespace vmargin
{

LedgerView::LedgerView(SeverityWeights weights)
    : weights_(weights)
{
}

void
LedgerView::add(const RunRecord &record)
{
    addAll({&record, 1});
}

LedgerView::Group &
LedgerView::groupFor(const std::string &workload_id, CoreId core)
{
    const auto it =
        index_.find(std::pair(std::string_view(workload_id), core));
    if (it != index_.end())
        return groups_[it->second];
    index_.emplace(std::pair(workload_id, core), groups_.size());
    Group &group = groups_.emplace_back();
    group.workloadId = workload_id;
    group.core = core;
    return group;
}

namespace
{

/** The slot of @p voltage in @p levels (highest voltage first),
 *  inserted when new. The search starts at @p from, the previous
 *  run's slot: a sweep stays on a level or steps to the next one
 *  down, and only a new campaign or level searches the rest. */
template <typename Level>
size_t
voltageSlot(std::vector<Level> &levels, size_t from, MilliVolt voltage)
{
    for (size_t slot = from; slot < std::min(from + 2, levels.size());
         ++slot)
        if (levels[slot].voltage == voltage)
            return slot;
    auto it = std::lower_bound(
        levels.begin(), levels.end(), voltage,
        [](const Level &level, MilliVolt v) { return level.voltage > v; });
    if (it == levels.end() || it->voltage != voltage)
        it = levels.insert(it, Level{voltage, {}});
    return static_cast<size_t>(it - levels.begin());
}

} // namespace

void
LedgerView::addAll(std::span<const RunRecord> records)
{
    // A cell's runs arrive together and, within a campaign, voltage
    // by voltage: the group is looked up again only when the key
    // changes, and the voltage's tally from the previous run's slot.
    // Each tally takes its runs in stream order, which fixes the
    // bits of its weight sum.
    Group *group = nullptr;
    size_t slot = 0;
    for (const RunRecord &record : records) {
        const RunKey &key = record.key;
        if (group == nullptr || key.core != group->core ||
            key.workloadId != group->workloadId) {
            group = &groupFor(key.workloadId, key.core);
            group->analyzed = false;
            slot = 0;
        }
        slot = voltageSlot(group->byVoltage, slot, key.voltage);
        group->byVoltage[slot].tally.add(record.effects, weights_);
    }
}

const LedgerView::Group *
LedgerView::group(std::string_view workload_id, CoreId core) const
{
    const auto it = index_.find(std::pair(workload_id, core));
    if (it == index_.end())
        return nullptr;
    return &groups_[it->second];
}

void
LedgerView::analyze(const Group &group) const
{
    // The one computation site for regions and severity by voltage:
    // a single pass over the cell's per-voltage tallies. Every
    // derived consumer — analyzeRegions(), the report rebuild, the
    // severity datasets, the CSV paths — reads the result of this
    // pass.
    RegionAnalysis analysis;
    // Levels come highest first: each goes to the front of the maps.
    for (const auto &[voltage, tally] : group.byVoltage) {
        const EffectSet seen = tally.effects();
        const bool any_abnormal = !seen.normal();
        const bool any_crash = seen.has(Effect::SC);
        Region region = Region::Safe;
        if (any_crash)
            region = Region::Crash;
        else if (any_abnormal)
            region = Region::Unsafe;
        analysis.regions.emplace_hint(analysis.regions.begin(), voltage,
                                      region);
        analysis.severityByVoltage.emplace_hint(
            analysis.severityByVoltage.begin(), voltage,
            tally.severity());

        if (any_crash && voltage > analysis.highestCrashVoltage)
            analysis.highestCrashVoltage = voltage;
        if (any_abnormal && voltage > analysis.highestAbnormalVoltage)
            analysis.highestAbnormalVoltage = voltage;
    }

    // Safe Vmin: walk from the top; the first non-safe level bounds
    // the safe region from below. Maps iterate ascending, so walk
    // in reverse.
    MilliVolt vmin = 0;
    for (auto it = analysis.regions.rbegin();
         it != analysis.regions.rend(); ++it) {
        if (it->second != Region::Safe)
            break;
        vmin = it->first;
    }
    // Even the highest measured voltage was abnormal: report the
    // level just above it as the (censored) Vmin. The warning is
    // left to whoever owns the order of the cells (warnIfCensored).
    if (vmin == 0)
        vmin = analysis.regions.rbegin()->first;
    analysis.vmin = vmin;

    group.analysis = std::move(analysis);
    group.analyzed = true;
}

const RegionAnalysis *
LedgerView::analysis(const std::string &workload_id,
                     CoreId core) const
{
    const Group *cell = group(workload_id, core);
    if (!cell)
        return nullptr;
    derive(*cell);
    return &cell->analysis;
}

void
LedgerView::derive(const Group &group) const
{
    if (group.analyzed)
        return;
    analyze(group);
    warnIfCensored(group.workloadId, group.core, group.analysis);
}

void
warnIfCensored(std::string_view workload_id, CoreId core,
               const RegionAnalysis &analysis)
{
    if (!analysis.regions.empty() &&
        analysis.regions.rbegin()->second != Region::Safe)
        util::warnf("analyzeRegions: ", workload_id, " core ", core,
                    " abnormal at the top of the sweep; Vmin is "
                    "censored at ",
                    analysis.vmin, " mV");
}

void
LedgerView::deriveAll(int workers) const
{
    std::vector<const Group *> todo;
    todo.reserve(groups_.size());
    for (const auto &group : groups_)
        if (!group.analyzed)
            todo.push_back(&group);
    // Groups are independent: each task writes only its own group's
    // memoized analysis, and analyze() is a pure function of the
    // group's tallies — so the derived views are identical for any
    // worker count, and later analysis()/cellResults() calls are
    // pure reads.
    util::ThreadPool::parallelFor(
        todo.size(), workers,
        [&](size_t i) { analyze(*todo[i]); });
}

std::vector<CellResult>
LedgerView::cellResults() const &
{
    std::vector<CellResult> cells;
    cells.reserve(groups_.size());
    for (const auto &group : groups_) {
        derive(group);
        cells.push_back({group.workloadId, group.core, group.analysis});
    }
    return cells;
}

std::vector<CellResult>
LedgerView::cellResults() &&
{
    std::vector<CellResult> cells;
    cells.reserve(groups_.size());
    for (auto &group : groups_) {
        derive(group);
        cells.push_back({std::move(group.workloadId), group.core,
                         std::move(group.analysis)});
    }
    groups_.clear();
    index_.clear();
    return cells;
}

} // namespace vmargin
