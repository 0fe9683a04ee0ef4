/**
 * @file
 * Quickstart: characterize one benchmark on one core of a simulated
 * X-Gene 2, print the regions of operation, the severity ramp and
 * the energy-saving headline.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart --workload bwaves --core 4
 */

#include <iostream>

#include "core/framework.hh"
#include "core/mitigation.hh"
#include "power/power_model.hh"
#include "sim/platform.hh"
#include "util/cli.hh"
#include "util/strings.hh"
#include "util/table.hh"
#include "workloads/spec.hh"

using namespace vmargin;

int
main(int argc, char **argv)
{
    util::CliParser cli("quickstart",
                        "characterize one benchmark under "
                        "undervolting");
    cli.addOption("workload", "bwaves", "benchmark (see --list)");
    cli.addOption("core", "4", "core under characterization (0-7)");
    cli.addOption("chip", "TTT", "chip corner: TTT, TFF or TSS");
    cli.addOption("campaigns", "10", "campaign repetitions");
    cli.addOption("workers", "0",
                  "parallel measurement workers (0 = hardware)");
    cli.addFlag("all-cores",
                "characterize every core, not just --core");
    cli.addFlag("list", "list available workloads and exit");
    if (!cli.parse(argc, argv))
        return 1;

    if (cli.flag("list")) {
        for (const auto &w : wl::fullSuite())
            std::cout << w.id() << '\n';
        return 0;
    }

    const auto workload = wl::findWorkload(cli.value("workload"));
    const auto core = util::narrowInt<CoreId>(cli.intValue("core"), "--core");
    const auto corner = sim::cornerFromName(cli.value("chip"));

    // A platform is one micro-server around one fabricated chip.
    sim::Platform platform(sim::XGene2Params{}, corner, 1);
    CharacterizationFramework framework(&platform);

    FrameworkConfig config;
    config.workloads = {workload};
    config.cores = {core};
    if (cli.flag("all-cores")) {
        config.cores.clear();
        for (CoreId c = 0; c < 8; ++c)
            config.cores.push_back(c);
    }
    config.campaigns = util::narrowInt<int>(
        cli.intValue("campaigns"), "--campaigns");
    config.workers = util::narrowInt<int>(
        cli.intValue("workers"), "--workers");
    config.startVoltage = 930;
    config.endVoltage = 830;

    std::cout << "characterizing " << workload.id() << " on "
              << (cli.flag("all-cores")
                      ? std::string("all cores")
                      : "core " + std::to_string(core))
              << " of chip " << platform.chip().name() << " ("
              << config.campaigns << " campaigns, 5 mV "
              << "steps, watchdog armed)...\n";
    const auto report = framework.characterize(config);

    if (cli.flag("all-cores")) {
        util::TablePrinter vmins(
            {"core", "safe Vmin (mV)", "severity @ Vmin-5"});
        for (const CoreId c : config.cores) {
            const auto &a = report.cell(workload.id(), c).analysis;
            const MilliVolt below =
                a.vmin - 5 >= config.endVoltage ? a.vmin - 5
                                                : a.vmin;
            vmins.addRow({std::to_string(c),
                          std::to_string(a.vmin),
                          util::formatDouble(
                              a.severityByVoltage.at(below), 1)});
        }
        vmins.print(std::cout);
        std::cout << "\nper-core detail below is for core " << core
                  << ".\n\n";
    }
    const auto &analysis = report.cell(workload.id(), core).analysis;

    util::TablePrinter table(
        {"voltage (mV)", "region", "severity", "mitigation"});
    for (auto it = analysis.regions.rbegin();
         it != analysis.regions.rend(); ++it) {
        const auto &[voltage, region] = *it;
        const double sev = analysis.severityByVoltage.at(voltage);
        table.addRow({std::to_string(voltage), regionName(region),
                      util::formatDouble(sev, 1),
                      mitigationActionName(
                          adviseMitigation(sev).action)});
    }
    table.print(std::cout);

    const double savings = power::savingsPercent(
        power::relativeDynamicPower(analysis.vmin, 980, 1.0));
    std::cout << "\nsafe Vmin        : " << analysis.vmin << " mV"
              << " (guardband " << analysis.guardband(980)
              << " mV below nominal)\n"
              << "unsafe region    : " << analysis.unsafeWidth()
              << " mV wide\n"
              << "highest crash    : "
              << analysis.highestCrashVoltage << " mV\n"
              << "watchdog resets  : "
              << report.watchdogInterventions << "\n"
              << "power at Vmin    : "
              << util::formatDouble(100.0 - savings, 1)
              << "% of nominal (" << util::formatDouble(savings, 1)
              << "% savings, same performance)\n";
    return 0;
}
