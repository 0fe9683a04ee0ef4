/**
 * @file
 * Fleet characterization: the paper's three-chip comparison (Table 3
 * / Section 5) in one invocation. Sweeps every chip of the fleet
 * over the same (workload, core) grid, then prints the per-corner
 * Vmin distribution, the per-corner guardband recommendation, the
 * chip-by-chip best-core comparison table, and the fleet-wide energy
 * savings rollup.
 *
 *   ./build/examples/fleet_characterize \
 *       --chip TTT --chip TFF:2 --chip TSS:3 --cores 0,4
 *
 * A journal path makes the whole fleet sweep kill-safe: re-running
 * the same command replays finished cells instead of re-measuring.
 */

#include <fstream>
#include <iostream>

#include "core/fleet.hh"
#include "sim/platform.hh"
#include "util/cli.hh"
#include "util/strings.hh"
#include "util/table.hh"
#include "workloads/spec.hh"

using namespace vmargin;

int
main(int argc, char **argv)
{
    util::CliParser cli("fleet_characterize",
                        "characterize a fleet of chips and compare "
                        "corners (three-chip table workflow)");
    cli.addRepeatable("chip",
                      "chip to include, CORNER[:serial] (default "
                      "fleet: TTT, TFF:2, TSS:3)");
    cli.addOption("cores", "0,2,4,6", "comma-separated core list");
    cli.addOption("campaigns", "3", "campaign repetitions");
    cli.addOption("frequency", "2400", "PMD frequency in MHz");
    cli.addOption("start", "930", "sweep start voltage (mV)");
    cli.addOption("end", "845", "sweep floor voltage (mV)");
    cli.addOption("workers", "0",
                  "worker threads (0 = one per hardware thread)");
    cli.addOption("journal", "",
                  "shared fleet journal for kill-safe resume");
    cli.addOption("report", "",
                  "write the full serialized fleet report here");
    cli.addOption("telemetry", "",
                  "append JSONL telemetry snapshots to this file");
    cli.addFlag("full-suite",
                "characterize all 40 workload samples instead of "
                "the 10 headline benchmarks");
    if (!cli.parse(argc, argv))
        return 1;

    std::vector<std::string> chip_specs = cli.values("chip");
    if (chip_specs.empty())
        chip_specs = {"TTT", "TFF:2", "TSS:3"};

    FleetConfig config;
    config.chips = parseFleetSpec(chip_specs);
    config.framework.workloads = cli.flag("full-suite")
                                     ? wl::fullSuite()
                                     : wl::headlineSuite();
    for (const auto &token : util::split(cli.value("cores"), ','))
        config.framework.cores.push_back(util::narrowInt<CoreId>(
            util::parseLong(util::trim(token), "--cores"),
            "--cores"));
    config.framework.campaigns = util::narrowInt<int>(
        cli.intValue("campaigns"), "--campaigns");
    config.framework.frequency = util::narrowInt<MegaHertz>(
        cli.intValue("frequency"), "--frequency");
    config.framework.startVoltage = util::narrowInt<MilliVolt>(
        cli.intValue("start"), "--start");
    config.framework.endVoltage = util::narrowInt<MilliVolt>(
        cli.intValue("end"), "--end");
    config.framework.workers = util::narrowInt<int>(
        cli.intValue("workers"), "--workers");
    config.framework.journalPath = cli.value("journal");
    config.framework.telemetryPath = cli.value("telemetry");

    std::cout << "fleet of " << config.chips.size() << " chips:";
    for (const ChipRef &chip : config.canonicalChips())
        std::cout << ' ' << chip.name();
    std::cout << " at " << config.framework.frequency << " MHz, "
              << config.framework.workloads.size()
              << " benchmarks x " << config.framework.cores.size()
              << " cores x " << config.framework.campaigns
              << " campaigns per chip\n\n";

    sim::Platform platform(sim::XGene2Params{}, sim::ChipCorner::TTT,
                           1);
    FleetExecutor executor(&platform);
    const FleetReport fleet = executor.run(config);

    if (!fleet.complete) {
        std::cout << "cell budget exhausted before the fleet "
                     "finished; re-run with the same --journal to "
                     "continue\n";
        return 0;
    }

    util::TablePrinter corners({"corner", "chips", "cells",
                                "best Vmin", "worst Vmin",
                                "guardband (mV)", "savings (%)"});
    for (const CornerSummary &s : fleet.cornerSummaries())
        corners.addRow({sim::cornerName(s.corner),
                        std::to_string(s.chips),
                        std::to_string(s.cells),
                        std::to_string(s.bestVmin),
                        std::to_string(s.worstVmin),
                        std::to_string(s.guardbandMv),
                        util::formatDouble(s.savingsPercent, 1)});
    corners.print(std::cout);

    std::cout << "\nbest-core Vmin per workload (the paper's "
                 "chip-to-chip comparison):\n"
              << fleet.comparisonCsv()
              << "\nfleet-wide energy savings at the safe floor: "
              << util::formatDouble(fleet.fleetSavingsPercent(), 1)
              << " %\n";

    const std::string report_path = cli.value("report");
    if (!report_path.empty()) {
        std::ofstream out(report_path);
        if (!out) {
            std::cerr << "cannot write " << report_path << '\n';
            return 1;
        }
        out << fleet.serialize();
        std::cout << "full fleet report written to " << report_path
                  << '\n';
    }
    return 0;
}
