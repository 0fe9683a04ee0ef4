#include "allocator.hh"

#include <algorithm>
#include <string>

#include "util/logging.hh"

namespace vmargin::sched
{

namespace
{

/** Snap @p mv up to the regulation grid. */
MilliVolt
snapUp(MilliVolt mv, MilliVolt step)
{
    const MilliVolt rem = mv % step;
    return rem ? mv + (step - rem) : mv;
}

} // namespace

TaskAllocator::TaskAllocator(const CharacterizationReport &report)
    : report_(report)
{
}

MilliVolt
TaskAllocator::requiredVoltage(
    const std::vector<Placement> &placements) const
{
    MilliVolt required = 0;
    for (const auto &placement : placements)
        required = std::max(
            required, report_.cell(placement.workloadId,
                                   placement.core)
                          .analysis.vmin);
    return snapUp(required, 5);
}

Allocation
TaskAllocator::allocate(
    const std::vector<std::string> &workload_ids) const
{
    // Characterized cores = the cores present in the report.
    std::vector<CoreId> cores;
    for (const auto &cell : report_.cells)
        if (std::find(cores.begin(), cores.end(), cell.core) ==
            cores.end())
            cores.push_back(cell.core);
    if (workload_ids.size() > cores.size())
        util::fatalError(
            "allocator: " + std::to_string(workload_ids.size()) +
            " tasks but only " + std::to_string(cores.size()) +
            " eligible cores");
    for (const auto &workload_id : workload_ids) {
        bool known = false;
        for (const auto &cell : report_.cells)
            known = known || cell.workloadId == workload_id;
        if (!known)
            util::fatalError("allocator: workload '" + workload_id +
                             "' was not characterized");
    }

    // Core robustness: average Vmin demanded across all
    // characterized workloads (lower = more robust).
    auto core_demand = [&](CoreId core) {
        double sum = 0.0;
        int count = 0;
        for (const auto &cell : report_.cells) {
            if (cell.core != core)
                continue;
            sum += static_cast<double>(cell.analysis.vmin);
            ++count;
        }
        return count ? sum / count : 1e9;
    };
    std::sort(cores.begin(), cores.end(), [&](CoreId a, CoreId b) {
        return core_demand(a) < core_demand(b);
    });

    // Task demand: its average Vmin across the characterized cores.
    auto task_demand = [&](const std::string &workload_id) {
        double sum = 0.0;
        int count = 0;
        for (const auto &cell : report_.cells) {
            if (cell.workloadId != workload_id)
                continue;
            sum += static_cast<double>(cell.analysis.vmin);
            ++count;
        }
        if (!count)
            util::fatalError("allocator: workload '" + workload_id +
                             "' was not characterized");
        return sum / count;
    };
    std::vector<std::string> tasks = workload_ids;
    std::stable_sort(tasks.begin(), tasks.end(),
                     [&](const std::string &a, const std::string &b) {
                         return task_demand(a) > task_demand(b);
                     });

    Allocation allocation;
    for (size_t i = 0; i < tasks.size(); ++i)
        allocation.placements.push_back(
            Placement{tasks[i], cores[i]});
    allocation.requiredVoltage =
        requiredVoltage(allocation.placements);
    return allocation;
}

Allocation
TaskAllocator::allocateNaive(
    const std::vector<std::string> &workload_ids) const
{
    Allocation allocation;
    for (size_t i = 0; i < workload_ids.size(); ++i)
        allocation.placements.push_back(
            Placement{workload_ids[i], static_cast<CoreId>(i)});
    allocation.requiredVoltage =
        requiredVoltage(allocation.placements);
    return allocation;
}

} // namespace vmargin::sched
