/**
 * @file
 * Fault-tolerant characterization with journal resume.
 *
 * Runs the paper's characterization sweep on a machine whose
 * management plane is deliberately hostile — NAKed I2C setpoints,
 * stale sensor reads, silent hangs, missed watchdog power cycles —
 * and chops the sweep into sessions that are "killed" after a few
 * cells, resuming each time from the write-ahead journal with a
 * brand-new platform object. The final report is compared against an
 * uninterrupted fault-free sweep to show how little the injected
 * hostility moves the measured margins.
 *
 *   ./build/examples/resilient_characterize --i2c-fail 0.10 \
 *       --wd-miss 0.05 --cells-per-session 1
 */

#include <cstdio>
#include <iostream>

#include "core/framework.hh"
#include "core/resultstore.hh"
#include "obs/metrics.hh"
#include "sim/platform.hh"
#include "util/cli.hh"
#include "util/strings.hh"
#include "util/table.hh"
#include "workloads/spec.hh"

using namespace vmargin;

int
main(int argc, char **argv)
{
    util::CliParser cli("resilient_characterize",
                        "characterize under management-plane faults "
                        "with journal-resume sessions");
    cli.addOption("chip", "TTT", "chip corner: TTT, TFF or TSS");
    cli.addOption("serial", "1", "chip serial number");
    cli.addOption("cores", "0,4", "comma-separated core list");
    cli.addOption("campaigns", "3", "campaign repetitions");
    cli.addOption("i2c-fail", "0.10",
                  "P(SLIMpro setpoint transaction NAKed)");
    cli.addOption("wd-miss", "0.05",
                  "P(watchdog misses a needed power cycle)");
    cli.addOption("hang", "0.002",
                  "P(management transaction hangs the machine)");
    cli.addOption("stale", "0.05", "P(sensor read returns stale)");
    cli.addOption("fault-seed", "99", "fault plan seed");
    cli.addOption("cells-per-session", "1",
                  "cells measured before a session is 'killed'");
    cli.addOption("journal", "/tmp/vmargin_resilient.journal",
                  "write-ahead journal path");
    if (!cli.parse(argc, argv))
        return 1;

    const auto corner = sim::cornerFromName(cli.value("chip"));
    const auto serial =
        static_cast<uint32_t>(cli.intValue("serial"));

    sim::FaultPlanConfig faults;
    faults.i2cWriteFailure = cli.doubleValue("i2c-fail");
    faults.watchdogMiss = cli.doubleValue("wd-miss");
    faults.managementHang = cli.doubleValue("hang");
    faults.staleRead = cli.doubleValue("stale");
    faults.seed =
        static_cast<Seed>(cli.intValue("fault-seed"));
    faults.validate();

    FrameworkConfig config;
    config.workloads = {wl::findWorkload("bwaves/ref"),
                        wl::findWorkload("leslie3d/ref")};
    config.cores.clear();
    for (const auto &token : util::split(cli.value("cores"), ','))
        config.cores.push_back(static_cast<CoreId>(
            util::parseLong(util::trim(token), "--cores")));
    config.campaigns = static_cast<int>(cli.intValue("campaigns"));
    config.maxEpochs = 8;
    config.startVoltage = 930;
    config.endVoltage = 850;

    // Reference: uninterrupted fault-free sweep on an identical chip.
    std::cout << "reference sweep (no faults, single session)...\n";
    sim::Platform reference_platform(sim::XGene2Params{}, corner,
                                     serial);
    CharacterizationFramework reference_framework(
        &reference_platform);
    const auto reference =
        reference_framework.characterize(config);

    // Hostile sweep, chopped into sessions. Each session gets a
    // fresh platform object — as if the driving process had been
    // killed and restarted — and only the journal carries state.
    config.journalPath = cli.value("journal");
    config.cellBudget =
        static_cast<int>(cli.intValue("cells-per-session"));
    std::remove(config.journalPath.c_str());

    // Cells a session served from the journal: the delta of the
    // executor's counter across that session.
    const obs::Counter &from_journal = obs::Registry::global().counter(
        "executor.cells_from_journal");
    CharacterizationReport report;
    int sessions = 0;
    uint64_t replayed = 0;
    do {
        sim::Platform platform(sim::XGene2Params{}, corner, serial);
        platform.installFaultPlan(faults);
        CharacterizationFramework framework(&platform);
        const uint64_t replayed_before = from_journal.value();
        report = framework.characterize(config);
        replayed = from_journal.value() - replayed_before;
        ++sessions;
        std::cout << "session " << sessions << ": "
                  << report.cells.size() << "/"
                  << config.workloads.size() * config.cores.size()
                  << " cells ("
                  << replayed
                  << " replayed from journal)"
                  << (report.complete ? ", sweep complete" : "")
                  << '\n';
    } while (!report.complete);

    util::TablePrinter table({"benchmark", "core",
                              "Vmin faulty (mV)",
                              "Vmin fault-free (mV)", "delta (mV)"});
    for (const auto &cell : report.cells) {
        const auto &clean =
            reference.cell(cell.workloadId, cell.core);
        table.addRow(
            {cell.workloadId, std::to_string(cell.core),
             std::to_string(cell.analysis.vmin),
             std::to_string(clean.analysis.vmin),
             std::to_string(cell.analysis.vmin -
                            clean.analysis.vmin)});
    }
    table.print(std::cout);

    const auto &t = report.telemetry;
    std::cout << "\nrecovery telemetry over " << sessions
              << " sessions:"
              << "\n  transaction retries     : " << t.retries
              << "\n  backoff time (sim us)   : " << t.backoffUsTotal
              << "\n  extra watchdog polls    : " << t.watchdogRetries
              << "\n  measurements lost       : " << t.lostMeasurements
              << "\n  cells replayed          : " << replayed
              << "\n  watchdog power cycles   : "
              << report.watchdogInterventions << '\n';

    std::remove(config.journalPath.c_str());
    return 0;
}
