/**
 * @file
 * Chaos soak: the supervised daemon under an aggressively faulty
 * management plane, next to an unsupervised control run.
 *
 * The CI gate for the margin supervisor: a reckless severity
 * tolerance on a management plane that NAKs writes, serves stale
 * sensor reads, hangs the SLIMpro and misses watchdog polls. The
 * soak FAILS (non-zero exit) when any crash goes un-recovered — the
 * daemon must serve every round and leave the machine responsive —
 * or when supervision does not cut the crash count. The measured
 * telemetry of both runs is written as JSON for artifact upload.
 *
 *   ./build/examples/chaos_soak --rounds 40 --json chaos_soak.json
 */

#include <fstream>
#include <iostream>
#include <sstream>

#include "core/predictor.hh"
#include "obs/metrics.hh"
#include "sched/daemon.hh"
#include "sim/platform.hh"
#include "util/cli.hh"
#include "util/strings.hh"
#include "workloads/spec.hh"

using namespace vmargin;

namespace
{

/** Far past the integration suite's hostile plan: roughly one in
 *  four management transactions misbehaves. */
sim::FaultPlanConfig
aggressivePlan(Seed seed)
{
    sim::FaultPlanConfig plan;
    plan.i2cWriteFailure = 0.25;
    plan.staleRead = 0.10;
    plan.managementHang = 0.005;
    plan.watchdogMiss = 0.10;
    plan.seed = seed;
    return plan;
}

/** One soak session on its own faulted platform. */
sched::DaemonResult
soak(const CharacterizationReport &report,
     const std::vector<WorkloadCounters> &profiles, double tolerance,
     int rounds, Seed seed, bool supervise,
     const std::string &telemetry_path)
{
    // Zero the registry per session so the streamed telemetry covers
    // exactly this soak, not the offline phase or the control run.
    obs::Registry::global().reset();

    sim::Platform platform(sim::XGene2Params{}, sim::ChipCorner::TTT,
                           1);
    platform.installFaultPlan(aggressivePlan(99));

    sched::GovernorConfig config;
    config.severityTolerance = tolerance;
    config.guardSteps = 0;
    sched::VoltageGovernor governor(config);
    for (CoreId core : {0, 4}) {
        const auto dataset =
            buildSeverityDataset(profiles, report, core);
        LinearPredictor predictor;
        predictor.fit(dataset.x, dataset.y, 5, 8);
        governor.setPredictor(core, std::move(predictor));
    }

    sched::GovernorDaemon daemon(&platform, std::move(governor));
    for (const auto &profile : profiles)
        daemon.registerProfile(profile);

    sched::DaemonOptions options;
    options.maxEpochs = 8;
    options.supervise = supervise;
    options.telemetryPath = telemetry_path;
    const sched::DaemonResult result = daemon.run(
        {{"bwaves/ref", 0}, {"namd/ref", 4}}, rounds, seed, options);

    if (!platform.responsive()) {
        std::cerr << "FAIL: "
                  << (supervise ? "supervised" : "unsupervised")
                  << " soak left the machine unresponsive — an "
                     "un-recovered crash\n";
        std::exit(1);
    }
    return result;
}

void
appendJson(std::ostringstream &os, const char *label,
           const sched::DaemonResult &result)
{
    os << '"' << label << "\":{"
       << "\"rounds\":" << result.rounds.size()
       << ",\"crashes\":" << result.crashes
       << ",\"watchdog_resets\":" << result.watchdogResets
       << ",\"abnormal_rounds\":" << result.abnormalRounds
       << ",\"fallback_rounds\":" << result.fallbackRounds
       << ",\"retries_exhausted\":"
       << result.fallbackRetriesExhausted
       << ",\"machine_unresponsive\":"
       << result.fallbackMachineUnresponsive
       << ",\"avg_mv\":" << result.averageVoltage
       << ",\"savings_pct\":" << result.energySavingsPercent
       << ",\"retries\":" << result.telemetry.retries
       << ",\"supervisor\":{"
       << "\"enabled\":"
       << (result.supervisorEnabled ? "true" : "false")
       << ",\"guard_steps\":" << result.supervisor.guardSteps
       << ",\"peak_guard_steps\":"
       << result.supervisor.peakGuardSteps << ",\"clamp\":\""
       << sched::clampReasonName(result.supervisor.clampReason)
       << "\",\"backoffs\":" << result.supervisor.backoffEvents
       << ",\"narrows\":" << result.supervisor.narrowEvents
       << ",\"quarantines\":" << result.supervisor.quarantines
       << ",\"readmissions\":" << result.supervisor.readmissions
       << ",\"canary_rounds\":" << result.supervisor.canaryRounds
       << ",\"canary_failures\":"
       << result.supervisor.canaryFailures
       << ",\"pinned_rounds\":" << result.supervisor.pinnedRounds
       << "}}";
}

} // namespace

int
main(int argc, char **argv)
{
    util::CliParser cli("chaos_soak",
                        "supervised daemon soak under aggressive "
                        "management-plane fault injection");
    cli.addOption("rounds", "40", "scheduling rounds per session");
    cli.addOption("tolerance", "17",
                  "severity tolerance (deliberately reckless)");
    cli.addOption("seed", "11", "session seed");
    cli.addOption("json", "", "telemetry JSON output path");
    cli.addOption("telemetry", "",
                  "append JSONL telemetry snapshots to this file "
                  "(supervised session only)");
    if (!cli.parse(argc, argv))
        return 1;

    const int rounds = util::narrowInt<int>(
        cli.intValue("rounds"), "--rounds");
    const double tolerance = cli.doubleValue("tolerance");
    const Seed seed = util::narrowInt<Seed>(cli.intValue("seed"), "--seed");

    // Offline phase on a clean platform; the soak sessions each run
    // on their own faulted replica of the same chip.
    sim::Platform clean(sim::XGene2Params{}, sim::ChipCorner::TTT,
                        1);
    CharacterizationFramework framework(&clean);
    FrameworkConfig config;
    config.workloads = wl::headlineSuite();
    config.cores = {0, 4};
    config.campaigns = 6;
    config.maxEpochs = 8;
    config.startVoltage = 930;
    config.endVoltage = 840;
    std::cout << "offline: characterizing for the soak...\n";
    const auto report = framework.characterize(config);
    Profiler profiler(&clean);
    const auto profiles =
        profiler.profileSuite(wl::headlineSuite(), 0, 8);

    std::cout << "soak: " << rounds << " rounds at tolerance "
              << tolerance << " under aggressive faults\n\n";
    // Only the supervised session streams telemetry: the control run
    // would interleave its snapshots into the same JSONL file.
    const auto unsupervised =
        soak(report, profiles, tolerance, rounds, seed, false, "");
    const auto supervised =
        soak(report, profiles, tolerance, rounds, seed, true,
             cli.value("telemetry"));

    std::cout << "unsupervised control:\n"
              << formatDaemonSummary(unsupervised) << '\n'
              << "supervised:\n"
              << formatDaemonSummary(supervised);

    // The gate: every round served, and supervision must not lose
    // to the control run on crashes.
    bool ok = true;
    if (supervised.rounds.size() != static_cast<size_t>(rounds) ||
        !supervised.complete) {
        std::cerr << "FAIL: supervised soak served "
                  << supervised.rounds.size() << "/" << rounds
                  << " rounds\n";
        ok = false;
    }
    if (unsupervised.crashes > 0 &&
        supervised.crashes >= unsupervised.crashes) {
        std::cerr << "FAIL: supervision did not cut crashes ("
                  << supervised.crashes << " vs "
                  << unsupervised.crashes << " unsupervised)\n";
        ok = false;
    }

    const std::string json_path = cli.value("json");
    if (!json_path.empty()) {
        std::ostringstream os;
        os << "{\"soak\":\"chaos\",\"rounds\":" << rounds
           << ",\"tolerance\":" << tolerance << ",\"seed\":" << seed
           << ',';
        appendJson(os, "unsupervised", unsupervised);
        os << ',';
        appendJson(os, "supervised", supervised);
        os << ",\"pass\":" << (ok ? "true" : "false") << "}";
        std::ofstream out(json_path);
        if (!out) {
            std::cerr << "cannot write " << json_path << '\n';
            return 1;
        }
        out << os.str() << '\n';
        out.flush();
        if (!out) {
            std::cerr << "write to " << json_path << " failed\n";
            return 1;
        }
        std::cout << "\ntelemetry written to " << json_path << '\n';
    }

    if (!ok)
        return 1;
    std::cout << "\nPASS: zero un-recovered crashes; supervision "
                 "held the line\n";
    return 0;
}
