#include "spec.hh"

#include <map>

#include "util/logging.hh"

namespace vmargin::wl
{

namespace
{

/**
 * Table entry builder. Parameters are ordered so the suite below
 * reads like a characterization table; everything not listed keeps
 * the WorkloadProfile default.
 */
WorkloadProfile
make(const std::string &name, const std::string &dataset,
     InstructionMix mix, double ipc, double stall_frac,
     double mispredict, double btb_miss, double exc_per_kilo,
     double ws_kb, double spatial, double temporal, uint32_t epochs)
{
    WorkloadProfile p;
    p.name = name;
    p.dataset = dataset;
    p.mix = mix;
    p.ipcNominal = ipc;
    p.dispatchStallFrac = stall_frac;
    p.branchMispredictRate = mispredict;
    p.btbMissRate = btb_miss;
    p.exceptionsPerKilo = exc_per_kilo;
    p.workingSetKb = ws_kb;
    p.spatialLocality = spatial;
    p.temporalLocality = temporal;
    p.epochs = epochs;
    p.instrFootprintKb = mix.branch > 0.15 ? 96.0 : 28.0;
    p.tlbStress = ws_kb > 65536.0 ? 0.7 : (ws_kb > 4096.0 ? 0.4 : 0.15);
    p.unalignedFrac = 0.002;
    p.validate();
    return p;
}

} // namespace

std::vector<WorkloadProfile>
headlineSuite()
{
    std::vector<WorkloadProfile> suite;
    // FP-heavy, streaming, large working sets ---------------------
    // name        dataset   {alu,  fpu,  ld,   st,   br }   ipc  stall misp  btb    exc  wsKB     spa  tmp  epochs
    suite.push_back(make("bwaves", "ref",
        {0.15, 0.45, 0.25, 0.08, 0.07}, 1.35, 0.32, 0.004, 0.002, 0.04,
        196000.0, 0.92, 0.35, 60));
    suite.push_back(make("cactusADM", "ref",
        {0.14, 0.48, 0.22, 0.10, 0.06}, 1.25, 0.34, 0.003, 0.002, 0.05,
        152000.0, 0.88, 0.40, 55));
    suite.push_back(make("dealII", "ref",
        {0.24, 0.36, 0.24, 0.07, 0.09}, 1.55, 0.24, 0.012, 0.008, 0.08,
        48000.0, 0.72, 0.55, 50));
    suite.push_back(make("gromacs", "ref",
        {0.22, 0.50, 0.18, 0.06, 0.04}, 1.90, 0.12, 0.006, 0.003, 0.03,
        3200.0, 0.80, 0.75, 50));
    suite.push_back(make("leslie3d", "ref",
        {0.11, 0.46, 0.27, 0.11, 0.05}, 1.60, 0.22, 0.003, 0.002, 0.04,
        78000.0, 0.93, 0.30, 55));
    suite.push_back(make("mcf", "ref",
        {0.26, 0.04, 0.34, 0.10, 0.26}, 0.45, 0.68, 0.055, 0.030, 0.12,
        432000.0, 0.18, 0.25, 45));
    suite.push_back(make("milc", "ref",
        {0.13, 0.44, 0.28, 0.10, 0.05}, 1.50, 0.26, 0.002, 0.002, 0.05,
        210000.0, 0.90, 0.30, 50));
    suite.push_back(make("namd", "ref",
        {0.21, 0.53, 0.18, 0.05, 0.03}, 2.05, 0.10, 0.004, 0.002, 0.02,
        2400.0, 0.78, 0.80, 55));
    suite.push_back(make("soplex", "pds-50",
        {0.30, 0.13, 0.29, 0.08, 0.20}, 0.95, 0.42, 0.030, 0.018, 0.10,
        96000.0, 0.45, 0.45, 45));
    suite.push_back(make("zeusmp", "ref",
        {0.16, 0.43, 0.24, 0.11, 0.06}, 1.45, 0.27, 0.004, 0.003, 0.05,
        104000.0, 0.89, 0.35, 50));
    return suite;
}

std::vector<WorkloadProfile>
fullSuite()
{
    std::vector<WorkloadProfile> suite = headlineSuite();

    // ---- remaining SPEC CPU2006 INT -----------------------------
    suite.push_back(make("perlbench", "checkspam",
        {0.38, 0.01, 0.27, 0.12, 0.22}, 1.30, 0.30, 0.035, 0.022, 0.30,
        18000.0, 0.40, 0.60, 45));
    suite.push_back(make("perlbench", "diffmail",
        {0.37, 0.01, 0.28, 0.12, 0.22}, 1.25, 0.32, 0.040, 0.025, 0.32,
        22000.0, 0.38, 0.58, 45));
    suite.push_back(make("perlbench", "splitmail",
        {0.39, 0.01, 0.26, 0.12, 0.22}, 1.35, 0.28, 0.032, 0.020, 0.28,
        15000.0, 0.42, 0.62, 40));
    suite.push_back(make("bzip2", "source",
        {0.42, 0.00, 0.28, 0.12, 0.18}, 1.40, 0.26, 0.045, 0.010, 0.06,
        8600.0, 0.55, 0.50, 40));
    suite.push_back(make("bzip2", "chicken",
        {0.43, 0.00, 0.27, 0.12, 0.18}, 1.45, 0.24, 0.040, 0.009, 0.05,
        6200.0, 0.58, 0.52, 40));
    suite.push_back(make("bzip2", "liberty",
        {0.41, 0.00, 0.29, 0.12, 0.18}, 1.35, 0.28, 0.048, 0.011, 0.06,
        9400.0, 0.53, 0.48, 40));
    suite.push_back(make("gcc", "166",
        {0.34, 0.01, 0.27, 0.14, 0.24}, 1.05, 0.38, 0.038, 0.028, 0.45,
        42000.0, 0.35, 0.45, 40));
    suite.push_back(make("gcc", "200",
        {0.33, 0.01, 0.28, 0.14, 0.24}, 1.00, 0.40, 0.040, 0.030, 0.48,
        56000.0, 0.33, 0.43, 40));
    suite.push_back(make("gcc", "cp-decl",
        {0.35, 0.01, 0.26, 0.14, 0.24}, 1.10, 0.36, 0.036, 0.026, 0.42,
        38000.0, 0.36, 0.46, 40));
    suite.push_back(make("gcc", "expr",
        {0.34, 0.01, 0.27, 0.14, 0.24}, 1.08, 0.37, 0.037, 0.027, 0.44,
        35000.0, 0.35, 0.46, 40));
    suite.push_back(make("gcc", "s04",
        {0.33, 0.01, 0.28, 0.14, 0.24}, 1.02, 0.39, 0.041, 0.029, 0.47,
        61000.0, 0.32, 0.42, 40));
    suite.push_back(make("gobmk", "13x13",
        {0.40, 0.01, 0.25, 0.10, 0.24}, 1.15, 0.30, 0.090, 0.040, 0.18,
        28000.0, 0.40, 0.55, 40));
    suite.push_back(make("gobmk", "nngs",
        {0.39, 0.01, 0.26, 0.10, 0.24}, 1.10, 0.32, 0.095, 0.042, 0.19,
        30000.0, 0.38, 0.54, 40));
    suite.push_back(make("gobmk", "score2",
        {0.41, 0.01, 0.24, 0.10, 0.24}, 1.18, 0.29, 0.088, 0.038, 0.17,
        26000.0, 0.41, 0.56, 40));
    suite.push_back(make("hmmer", "nph3",
        {0.52, 0.02, 0.28, 0.10, 0.08}, 2.10, 0.10, 0.008, 0.004, 0.03,
        1400.0, 0.75, 0.82, 45));
    suite.push_back(make("hmmer", "retro",
        {0.53, 0.02, 0.27, 0.10, 0.08}, 2.15, 0.09, 0.007, 0.004, 0.03,
        1100.0, 0.76, 0.83, 45));
    suite.push_back(make("sjeng", "ref",
        {0.44, 0.01, 0.22, 0.09, 0.24}, 1.30, 0.26, 0.075, 0.035, 0.15,
        172000.0, 0.30, 0.50, 45));
    suite.push_back(make("libquantum", "ref",
        {0.36, 0.05, 0.32, 0.12, 0.15}, 1.10, 0.44, 0.010, 0.004, 0.04,
        98000.0, 0.95, 0.15, 45));
    suite.push_back(make("h264ref", "foreman",
        {0.46, 0.08, 0.26, 0.11, 0.09}, 1.85, 0.14, 0.015, 0.008, 0.08,
        24000.0, 0.68, 0.70, 45));
    suite.push_back(make("h264ref", "sss",
        {0.45, 0.08, 0.27, 0.11, 0.09}, 1.80, 0.15, 0.016, 0.009, 0.08,
        32000.0, 0.66, 0.68, 50));
    suite.push_back(make("omnetpp", "ref",
        {0.33, 0.02, 0.30, 0.13, 0.22}, 0.75, 0.52, 0.045, 0.035, 0.35,
        154000.0, 0.22, 0.35, 40));
    suite.push_back(make("astar", "biglakes",
        {0.37, 0.02, 0.30, 0.10, 0.21}, 0.90, 0.46, 0.050, 0.024, 0.14,
        182000.0, 0.28, 0.40, 40));
    suite.push_back(make("astar", "rivers",
        {0.38, 0.02, 0.29, 0.10, 0.21}, 0.95, 0.44, 0.048, 0.022, 0.13,
        164000.0, 0.30, 0.42, 40));
    suite.push_back(make("xalancbmk", "ref",
        {0.32, 0.01, 0.31, 0.12, 0.24}, 0.85, 0.48, 0.042, 0.038, 0.55,
        76000.0, 0.25, 0.40, 40));

    // ---- remaining SPEC CPU2006 FP ------------------------------
    suite.push_back(make("povray", "ref",
        {0.28, 0.38, 0.20, 0.06, 0.08}, 1.75, 0.14, 0.018, 0.010, 0.10,
        1800.0, 0.60, 0.78, 45));
    suite.push_back(make("calculix", "hyperviscoplastic",
        {0.22, 0.44, 0.22, 0.07, 0.05}, 1.70, 0.18, 0.006, 0.004, 0.05,
        12000.0, 0.74, 0.65, 45));
    suite.push_back(make("GemsFDTD", "ref",
        {0.12, 0.44, 0.27, 0.12, 0.05}, 1.30, 0.33, 0.003, 0.002, 0.05,
        286000.0, 0.91, 0.25, 50));
    suite.push_back(make("lbm", "ref",
        {0.14, 0.40, 0.27, 0.14, 0.05}, 1.20, 0.38, 0.002, 0.001, 0.03,
        409000.0, 0.97, 0.10, 45));
    suite.push_back(make("sphinx3", "an4",
        {0.25, 0.35, 0.26, 0.06, 0.08}, 1.50, 0.24, 0.020, 0.012, 0.12,
        44000.0, 0.62, 0.55, 45));

    if (suite.size() != 39)
        util::panicf("fullSuite: expected 39 pre-variant samples, got ",
                     suite.size());

    // Train/ref dataset variants bringing the population to the
    // paper's 40 samples (26 distinct benchmarks).
    auto variant = [&suite](const std::string &name,
                            const std::string &base_dataset,
                            const std::string &new_dataset,
                            double ws_scale, double stall_delta) {
        for (const auto &p : suite) {
            if (p.name == name && p.dataset == base_dataset) {
                WorkloadProfile v = p;
                v.dataset = new_dataset;
                v.workingSetKb *= ws_scale;
                v.dispatchStallFrac = std::min(
                    0.9, std::max(0.02,
                                  v.dispatchStallFrac + stall_delta));
                v.validate();
                suite.push_back(v);
                return;
            }
        }
        util::panicf("fullSuite: variant base ", name, "/",
                     base_dataset, " not found");
    };
    variant("mcf", "ref", "train", 0.25, -0.06);

    if (suite.size() != 40)
        util::panicf("fullSuite: expected 40 samples, got ",
                     suite.size());
    return suite;
}

WorkloadProfile
findWorkload(const std::string &id)
{
    static const std::vector<WorkloadProfile> suite = fullSuite();
    // Exact "name/dataset" match first, then first "name" match.
    for (const auto &p : suite)
        if (p.id() == id)
            return p;
    for (const auto &p : suite)
        if (p.name == id)
            return p;
    util::fatalError("unknown workload '" + id +
                     "' (try e.g. bwaves or gcc/166)");
}

} // namespace vmargin::wl
