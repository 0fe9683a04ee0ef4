/**
 * @file
 * Prediction walkthrough (paper Figure 6): characterize, profile the
 * PMU counters at nominal conditions, select features with RFE,
 * train the linear severity model and evaluate it against the naive
 * baseline — then use the model as an online predictor for a
 * workload it has never seen.
 *
 *   ./build/examples/predict_severity --core 0 --keep 5
 */

#include <iostream>

#include "core/predictor.hh"
#include "sim/platform.hh"
#include "util/cli.hh"
#include "util/strings.hh"
#include "util/table.hh"
#include "workloads/spec.hh"

using namespace vmargin;

int
main(int argc, char **argv)
{
    util::CliParser cli("predict_severity",
                        "train and evaluate the severity predictor");
    cli.addOption("chip", "TTT", "chip corner");
    cli.addOption("core", "0", "core whose severity is modelled");
    cli.addOption("keep", "5", "features kept by RFE");
    cli.addOption("campaigns", "10", "campaign repetitions");
    cli.addOption("holdout", "mcf",
                  "workload excluded from training and predicted "
                  "afterwards");
    if (!cli.parse(argc, argv))
        return 1;

    const auto core = util::narrowInt<CoreId>(cli.intValue("core"), "--core");
    sim::Platform platform(sim::XGene2Params{},
                           sim::cornerFromName(cli.value("chip")),
                           1);

    // Phase 1: characterization (training ground truth).
    auto workloads = wl::headlineSuite();
    CharacterizationFramework framework(&platform);
    FrameworkConfig config;
    config.workloads = workloads;
    config.cores = {core};
    config.campaigns = util::narrowInt<int>(
        cli.intValue("campaigns"), "--campaigns");
    config.startVoltage = 930;
    config.endVoltage = 830;
    std::cout << "phase 1: characterizing " << workloads.size()
              << " benchmarks on core " << core << "...\n";
    const auto report = framework.characterize(config);

    // Phase 2: profiling at nominal conditions.
    std::cout << "phase 2: collecting the "
              << sim::kNumPmuEvents << " PMU counters...\n";
    Profiler profiler(&platform);
    const auto profiles = profiler.profileSuite(workloads, core);

    // Phase 3: feature selection + training; phase 4: evaluation.
    const auto dataset = buildSeverityDataset(profiles, report, core);
    EvaluationConfig eval_config;
    eval_config.keepFeatures =
        util::narrowInt<size_t>(cli.intValue("keep"), "--keep");
    std::cout << "phase 3/4: " << dataset.y.size()
              << " unsafe-region samples, RFE to "
              << eval_config.keepFeatures << " features, 80/20 "
              << "split...\n\n";
    const auto eval = evaluatePredictor(dataset, eval_config);

    util::TablePrinter metrics({"metric", "linear model", "naive"});
    metrics.addRow({"RMSE (severity units)",
                    util::formatDouble(eval.rmse, 2),
                    util::formatDouble(eval.naiveRmse, 2)});
    metrics.addRow({"R2", util::formatDouble(eval.r2, 3),
                    util::formatDouble(eval.naiveR2, 3)});
    metrics.print(std::cout);
    std::cout << "\nselected features:\n";
    for (const auto &name : eval.selectedFeatureNames)
        std::cout << "  " << name << '\n';

    // Online use: predict the holdout workload's severity curve.
    const auto holdout = wl::findWorkload(cli.value("holdout"));
    LinearPredictor predictor;
    predictor.fit(dataset.x, dataset.y, eval_config.keepFeatures, 4);
    const auto holdout_profile = profiler.profile(holdout, core);

    std::cout << "\npredicted severity for " << holdout.id()
              << " on core " << core << ":\n";
    util::TablePrinter curve({"voltage (mV)", "predicted severity"});
    for (MilliVolt v = 915; v >= 860; v -= 5) {
        stats::Vector sample;
        for (size_t e = 0; e < sim::kNumPmuEvents; ++e)
            sample.push_back(holdout_profile.perKilo(
                static_cast<sim::PmuEvent>(e)));
        sample.push_back(static_cast<double>(v));
        const double sev =
            std::max(0.0, predictor.predict(sample));
        curve.addRow({std::to_string(v),
                      util::formatDouble(sev, 2)});
    }
    curve.print(std::cout);
    return 0;
}
