/**
 * @file
 * Energy/performance trade-offs for a multi-programmed workload
 * (paper section 5): characterize the chip, place tasks on cores
 * with the Vmin-aware allocator, and walk the Figure 9 ladder of
 * frequency/voltage steps.
 *
 *   ./build/examples/energy_tradeoff \
 *       --tasks bwaves,cactusADM,dealII,gromacs,leslie3d,mcf,milc,namd
 */

#include <algorithm>
#include <iostream>

#include "core/framework.hh"
#include "core/tradeoff.hh"
#include "sched/allocator.hh"
#include "sim/platform.hh"
#include "util/cli.hh"
#include "util/strings.hh"
#include "util/table.hh"
#include "workloads/spec.hh"

using namespace vmargin;

int
main(int argc, char **argv)
{
    util::CliParser cli("energy_tradeoff",
                        "Vmin-aware scheduling and the Figure 9 "
                        "ladder");
    cli.addOption("chip", "TTT", "chip corner");
    cli.addOption(
        "tasks",
        "bwaves,cactusADM,dealII,gromacs,leslie3d,mcf,milc,namd",
        "comma-separated benchmarks (max 8)");
    cli.addOption("campaigns", "6", "campaign repetitions");
    if (!cli.parse(argc, argv))
        return 1;

    std::vector<std::string> tasks;
    for (const auto &token : util::split(cli.value("tasks"), ','))
        tasks.push_back(wl::findWorkload(util::trim(token)).id());

    sim::Platform platform(sim::XGene2Params{},
                           sim::cornerFromName(cli.value("chip")),
                           1);
    CharacterizationFramework framework(&platform);

    // A task listed twice is placed twice but characterized once.
    FrameworkConfig config;
    for (const auto &id : tasks)
        if (std::none_of(config.workloads.begin(),
                         config.workloads.end(),
                         [&](const auto &w) { return w.id() == id; }))
            config.workloads.push_back(wl::findWorkload(id));
    config.cores = {0, 1, 2, 3, 4, 5, 6, 7};
    config.campaigns = util::narrowInt<int>(
        cli.intValue("campaigns"), "--campaigns");
    config.startVoltage = 930;
    config.endVoltage = 840;

    std::cout << "characterizing " << tasks.size()
              << " tasks on all 8 cores of "
              << platform.chip().name() << "...\n\n";
    const auto report = framework.characterize(config);

    // Vmin-aware placement vs the naive one.
    const sched::TaskAllocator allocator(report);
    const auto naive = allocator.allocateNaive(tasks);
    const auto smart = allocator.allocate(tasks);

    std::cout << "naive placement needs "
              << naive.requiredVoltage << " mV; Vmin-aware "
              << "placement needs " << smart.requiredVoltage
              << " mV:\n";
    util::TablePrinter placement({"task", "core", "cell Vmin (mV)"});
    for (const auto &p : smart.placements)
        placement.addRow(
            {p.workloadId, std::to_string(p.core),
             std::to_string(
                 report.cell(p.workloadId, p.core).analysis.vmin)});
    placement.print(std::cout);

    // The Figure 9 ladder for the smart placement.
    const TradeoffExplorer explorer(report, 760);
    const auto ladder = explorer.ladder(smart.placements);

    std::cout << "\nfrequency/voltage ladder (Figure 9):\n";
    util::TablePrinter steps({"slowed PMDs", "voltage (mV)",
                              "performance", "power",
                              "savings"});
    for (const auto &point : ladder)
        steps.addRow(
            {std::to_string(point.slowedPmds),
             std::to_string(point.voltage),
             util::formatDouble(100.0 * point.performanceRel, 1) +
                 "%",
             util::formatDouble(100.0 * point.powerRel, 1) + "%",
             util::formatDouble(point.savingsPercent(), 1) + "%"});
    steps.print(std::cout);

    std::cout << "\nreading: each step moves the weakest remaining "
                 "PMD to the divided clock,\nletting the shared "
                 "voltage domain drop to the next-worst cell's "
                 "Vmin.\n";
    return 0;
}
