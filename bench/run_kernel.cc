/**
 * @file
 * Per-run simulation kernel throughput: Core::run invocations per
 * second and epochs per second over a fixed voltage grid spanning
 * every fault regime (nominal, SDC/CE, UE, AC, SC).
 *
 * perfbench times the whole management plane (executor, ledger,
 * serialization, classifier); this bench isolates the kernel
 * underneath it — scratch-buffer RNG draws, batch cache walks, PMU
 * accumulation — so kernel-level regressions are visible without the
 * campaign machinery's noise. The workload mix and grid are fixed,
 * and every run result is folded into an FNV hash printed alongside
 * the rates. At the default 40 reps that hash is pinned by
 * KernelGolden.RunKernelGridHash (tests/sim/test_kernel_golden.cc).
 *
 * Emits a JSON record, optionally written to a file:
 *
 *   {"bench":"run_kernel","runs":N,"runs_per_sec":...,
 *    "epochs_per_sec":...,"result_hash":"..."}
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/cache_hierarchy.hh"
#include "sim/core.hh"
#include "util/cli.hh"
#include "util/rng.hh"
#include "util/strings.hh"
#include "util/table.hh"
#include "workloads/spec.hh"

using namespace vmargin;

namespace
{

/** FNV-1a over arbitrary words; chained across calls. */
uint64_t
fnv(uint64_t hash, uint64_t word)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (word >> (byte * 8)) & 0xFF;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

uint64_t
fnvDouble(uint64_t hash, double value)
{
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return fnv(hash, bits);
}

/** Fold the observable outcome of one run into the running hash. */
uint64_t
hashRun(uint64_t hash, const sim::RunResult &r)
{
    hash = fnv(hash, r.systemCrashed);
    hash = fnv(hash, r.applicationCrashed);
    hash = fnv(hash, r.completed);
    hash = fnv(hash, r.outputMatches);
    hash = fnv(hash, static_cast<uint64_t>(r.exitCode));
    hash = fnv(hash, r.sdcEvents);
    hash = fnv(hash, r.correctedErrors);
    hash = fnv(hash, r.uncorrectedErrors);
    hash = fnv(hash, r.epochsExecuted);
    hash = fnvDouble(hash, r.simulatedSeconds);
    hash = fnvDouble(hash, r.avgIpc);
    hash = fnvDouble(hash, r.activityFactor);
    for (const uint64_t counter : r.counters)
        hash = fnv(hash, counter);
    for (const auto &e : r.errors) {
        hash = fnv(hash, static_cast<uint64_t>(e.kind));
        hash = fnv(hash, static_cast<uint64_t>(e.site));
        hash = fnv(hash, e.core);
        hash = fnv(hash, e.epoch);
        hash = fnv(hash, e.count);
    }
    return hash;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    int repetitions = 40;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--reps" && i + 1 < argc) {
            repetitions = static_cast<int>(
                util::parseLong(argv[++i], "--reps"));
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--json <path>] [--reps <n>]\n";
            return 2;
        }
    }
    if (repetitions < 1)
        repetitions = 1;

    util::printBanner(std::cout,
                      "per-run simulation kernel throughput");

    const sim::XGene2Params params;
    sim::CacheHierarchy caches(params);
    sim::Core core(0, params, &caches);

    sim::OnsetSet onsets;
    onsets.sdc = 900;
    onsets.ce = 905;
    onsets.ue = 885;
    onsets.ac = 880;
    onsets.sc = 870;

    const std::vector<std::string> workloads = {"bwaves/ref",
                                                "mcf/ref"};
    // Nominal; straddling CE/SDC; inside UE/AC; deep in the crash
    // region — the grid exercises every fault-path branch of the
    // kernel, so rates aren't flattered by the cheap happy path.
    const std::vector<MilliVolt> grid = {980, 910, 890, 875, 860};

    // Warm-up pass: first-touch page faults on the cache model's
    // arrays stay out of the measurement.
    for (const auto &name : workloads) {
        sim::ExecutionConfig config;
        config.voltage = 980;
        config.seed = util::mixSeed(0x7E57ULL, 0);
        config.maxEpochs = 20;
        caches.invalidateAll();
        (void)core.run(wl::findWorkload(name), onsets, config);
    }

    uint64_t hash = 0xcbf29ce484222325ULL; // FNV offset basis
    uint64_t total_runs = 0;
    uint64_t total_epochs = 0;
    const auto begin = std::chrono::steady_clock::now();
    for (int rep = 0; rep < repetitions; ++rep) {
        for (const auto &name : workloads) {
            const auto &profile = wl::findWorkload(name);
            for (const MilliVolt v : grid) {
                sim::ExecutionConfig config;
                config.voltage = v;
                config.seed = util::mixSeed(
                    0xBE7C4ULL + static_cast<uint64_t>(rep),
                    static_cast<uint64_t>(v));
                config.maxEpochs = 20;
                caches.invalidateAll();
                const sim::RunResult r =
                    core.run(profile, onsets, config);
                hash = hashRun(hash, r);
                ++total_runs;
                total_epochs += r.epochsExecuted;
            }
        }
    }
    const auto end = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(end - begin).count();

    const double runs_per_sec =
        seconds > 0.0 ? static_cast<double>(total_runs) / seconds
                      : 0.0;
    const double epochs_per_sec =
        seconds > 0.0 ? static_cast<double>(total_epochs) / seconds
                      : 0.0;

    std::ostringstream hash_hex;
    hash_hex << std::hex << hash;

    std::cout << total_runs << " runs, " << total_epochs
              << " epochs in " << util::formatDouble(seconds, 3)
              << " s\n"
              << "  " << util::formatDouble(runs_per_sec, 1)
              << " runs/s\n"
              << "  " << util::formatDouble(epochs_per_sec, 1)
              << " epochs/s\n"
              << "  result hash " << hash_hex.str() << "\n";

    std::ostringstream json;
    json << "{\"bench\":\"run_kernel\",\"runs\":" << total_runs
         << ",\"epochs\":" << total_epochs
         << ",\"seconds\":" << util::formatDouble(seconds, 4)
         << ",\"runs_per_sec\":"
         << util::formatDouble(runs_per_sec, 1)
         << ",\"epochs_per_sec\":"
         << util::formatDouble(epochs_per_sec, 1)
         << ",\"result_hash\":\"" << hash_hex.str() << "\"}";

    std::cout << json.str() << "\n";
    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::cerr << "FAIL: cannot write JSON to '" << json_path
                      << "'\n";
            return 1;
        }
        out << json.str() << "\n";
    }
    return 0;
}
