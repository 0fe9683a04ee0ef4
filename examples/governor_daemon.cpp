/**
 * @file
 * Closed-loop undervolting daemon: train severity predictors from a
 * characterization, hand them to the online governor, and let the
 * daemon drive the shared voltage domain for a multi-programmed
 * workload — measuring the realized energy savings and the safety
 * record (abnormal rounds, crashes, watchdog resets).
 *
 *   ./build/examples/governor_daemon --rounds 30 --tolerance 0
 *   ./build/examples/governor_daemon --tolerance 4   # SDC-tolerant
 */

#include <iostream>

#include "core/predictor.hh"
#include "sched/daemon.hh"
#include "sim/platform.hh"
#include "util/cli.hh"
#include "util/strings.hh"
#include "util/table.hh"
#include "workloads/spec.hh"

using namespace vmargin;

int
main(int argc, char **argv)
{
    util::CliParser cli("governor_daemon",
                        "closed-loop predictor-guided undervolting");
    cli.addOption("chip", "TTT", "chip corner");
    cli.addOption("rounds", "30", "scheduling rounds");
    cli.addOption("tolerance", "0",
                  "severity tolerance (0 = fully safe, up to 4 for "
                  "SDC-tolerant applications)");
    cli.addOption("guard", "1", "guard steps above the decision");
    cli.addFlag("reexec",
                "re-execute SDC-corrupted tasks at nominal voltage "
                "(section 4.4 recovery)");
    cli.addFlag("supervise",
                "wrap the governor in the margin supervisor "
                "(adaptive guardband, quarantine, emergency clamp)");
    cli.addOption("journal", "",
                  "daemon journal path (crash-persistent sessions; "
                  "rerun with the same arguments to resume)");
    if (!cli.parse(argc, argv))
        return 1;

    sim::Platform platform(sim::XGene2Params{},
                           sim::cornerFromName(cli.value("chip")),
                           1);

    // Offline: characterize + profile + train per-core predictors.
    const std::vector<CoreId> cores = {0, 2, 4, 6};
    const auto workloads = wl::headlineSuite();
    CharacterizationFramework framework(&platform);
    FrameworkConfig config;
    config.workloads = workloads;
    config.cores = cores;
    config.campaigns = 8;
    config.startVoltage = 930;
    config.endVoltage = 840;
    std::cout << "offline: characterizing "
              << workloads.size() << " benchmarks on "
              << cores.size() << " cores...\n";
    const auto report = framework.characterize(config);

    Profiler profiler(&platform);
    const auto profiles = profiler.profileSuite(workloads, 0, 15);

    sched::GovernorConfig governor_config;
    governor_config.severityTolerance =
        cli.doubleValue("tolerance");
    governor_config.guardSteps =
        util::narrowInt<int>(cli.intValue("guard"), "--guard");
    sched::VoltageGovernor governor(governor_config);
    for (CoreId core : cores) {
        const auto dataset =
            buildSeverityDataset(profiles, report, core);
        LinearPredictor predictor;
        predictor.fit(dataset.x, dataset.y, 5, 8);
        governor.setPredictor(core, std::move(predictor));
    }

    // Online: one workload per controlled core, daemon in charge.
    sched::GovernorDaemon daemon(&platform, std::move(governor));
    for (const auto &profile : profiles)
        daemon.registerProfile(profile);

    std::vector<Placement> placements = {
        {"bwaves/ref", 0},
        {"leslie3d/ref", 2},
        {"namd/ref", 4},
        {"mcf/ref", 6},
    };
    const int rounds = util::narrowInt<int>(
        cli.intValue("rounds"), "--rounds");
    std::cout << "online: running " << rounds
              << " scheduling rounds...\n\n";
    sched::DaemonOptions options;
    options.reexecuteOnSdc = cli.flag("reexec");
    options.supervise = cli.flag("supervise");
    options.journalPath = cli.value("journal");
    const auto result = daemon.run(placements, rounds, 42, options);

    util::TablePrinter table({"round", "voltage (mV)",
                              "energy (J)", "abnormal",
                              "crashed"});
    for (const auto &record : result.rounds) {
        if (record.round % 5 && !record.anyAbnormal)
            continue; // keep the listing short
        table.addRow({std::to_string(record.round),
                      std::to_string(record.voltage),
                      util::formatDouble(record.energyJoule, 3),
                      record.anyAbnormal ? "yes" : "",
                      record.crashed ? "yes" : ""});
    }
    table.print(std::cout);

    std::cout << '\n' << sched::formatDaemonSummary(result);
    return 0;
}
