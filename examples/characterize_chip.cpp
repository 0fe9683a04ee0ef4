/**
 * @file
 * Full-chip characterization: the paper's Figure 4 workflow for one
 * chip. Sweeps every selected core over the voltage range for each
 * benchmark, classifies every run, and emits the framework's final
 * CSV (per-run rows) plus a per-cell summary.
 *
 *   ./build/examples/characterize_chip --chip TFF --cores 0,4 \
 *       --csv runs.csv
 */

#include <fstream>
#include <iostream>

#include "core/framework.hh"
#include "sim/platform.hh"
#include "util/cli.hh"
#include "util/config.hh"
#include "util/strings.hh"
#include "util/table.hh"
#include "workloads/spec.hh"

using namespace vmargin;

int
main(int argc, char **argv)
{
    util::CliParser cli("characterize_chip",
                        "characterize a whole chip (Figure 4 "
                        "workflow)");
    cli.addOption("chip", "TTT", "chip corner: TTT, TFF or TSS");
    cli.addOption("serial", "1", "chip serial number");
    cli.addOption("cores", "0,1,2,3,4,5,6,7",
                  "comma-separated core list");
    cli.addOption("campaigns", "10", "campaign repetitions");
    cli.addOption("frequency", "2400", "PMD frequency in MHz");
    cli.addOption("start", "930", "sweep start voltage (mV)");
    cli.addOption("end", "830", "sweep floor voltage (mV)");
    cli.addOption("csv", "", "write the per-run CSV to this file");
    cli.addOption("telemetry", "",
                  "append JSONL telemetry snapshots to this file");
    cli.addOption("config", "",
                  "key=value setup file overriding the options "
                  "above (see FrameworkConfig::fromConfig)");
    cli.addFlag("full-suite",
                "characterize all 40 workload samples instead of "
                "the 10 headline benchmarks");
    if (!cli.parse(argc, argv))
        return 1;

    sim::Platform platform(
        sim::XGene2Params{}, sim::cornerFromName(cli.value("chip")),
        util::narrowInt<uint32_t>(cli.intValue("serial"),
                                  "--serial"));
    CharacterizationFramework framework(&platform);

    FrameworkConfig config;
    if (!cli.value("config").empty()) {
        config = FrameworkConfig::fromConfig(
            util::ConfigFile::fromFile(cli.value("config")));
    } else {
        config.workloads = cli.flag("full-suite")
                               ? wl::fullSuite()
                               : wl::headlineSuite();
        for (const auto &token :
             util::split(cli.value("cores"), ','))
            config.cores.push_back(util::narrowInt<CoreId>(
                util::parseLong(util::trim(token), "--cores"),
                "--cores"));
        config.campaigns = util::narrowInt<int>(
            cli.intValue("campaigns"), "--campaigns");
        config.frequency = util::narrowInt<MegaHertz>(
            cli.intValue("frequency"), "--frequency");
        config.startVoltage = util::narrowInt<MilliVolt>(
            cli.intValue("start"), "--start");
        config.endVoltage = util::narrowInt<MilliVolt>(
            cli.intValue("end"), "--end");
    }
    if (!cli.value("telemetry").empty())
        config.telemetryPath = cli.value("telemetry");

    std::cout << "chip " << platform.chip().name() << " at "
              << config.frequency << " MHz, cores";
    for (CoreId c : config.cores)
        std::cout << ' ' << c;
    std::cout << ", " << config.workloads.size() << " benchmarks x "
              << config.campaigns << " campaigns\n";

    const auto report = framework.characterize(config);

    util::TablePrinter table({"benchmark", "core", "Vmin (mV)",
                              "crash (mV)", "unsafe (mV)",
                              "guardband (mV)"});
    for (const auto &cell : report.cells)
        table.addRow({cell.workloadId, std::to_string(cell.core),
                      std::to_string(cell.analysis.vmin),
                      std::to_string(
                          cell.analysis.highestCrashVoltage),
                      std::to_string(cell.analysis.unsafeWidth()),
                      std::to_string(cell.analysis.guardband(980))});
    table.print(std::cout);

    std::cout << "\ntotal runs               : " << report.runCount()
              << "\nwatchdog power cycles    : "
              << report.watchdogInterventions
              << "\nmachine boots            : "
              << platform.bootCount() << '\n';

    const std::string csv_path = cli.value("csv");
    if (!csv_path.empty()) {
        std::ofstream out(csv_path);
        if (!out) {
            std::cerr << "cannot write " << csv_path << '\n';
            return 1;
        }
        const std::string csv = report.toCsv();
        out.write(csv.data(),
                  static_cast<std::streamsize>(csv.size()));
        out.flush();
        if (!out) {
            std::cerr << "write to " << csv_path
                      << " failed while emitting " << csv.size()
                      << " bytes (disk full?)\n";
            return 1;
        }
        std::cout << "per-run CSV written to " << csv_path << '\n';
    }
    return 0;
}
