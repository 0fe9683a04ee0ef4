/**
 * @file
 * vmbench: the repo benchmark driver.
 *
 *   vmbench --workload NAME --seed N --seconds S --trace 0|1
 *           [--expect HASH] [--workdir DIR] [--smoke]
 *
 * Runs one workload (sweep_cold, resume_replay or daemon_soak) as a
 * closed loop: one client in one process, the next op issued when the
 * previous one returned. With --trace 0 it reports the end-to-end
 * metrics; with --trace 1 it reruns the workload's pipeline from the
 * library's public calls under an in-memory span trace and reports
 * the per-layer metrics. Every op's output hash is checked against
 * --expect (or, without it, against the first op's hash).
 *
 * The last line of standard output is one JSON object:
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
 * preceded by a "host" line recording the facts a result needs to be
 * read against: processor count, compiler, build type, and the
 * parallel capacity a short spin probe actually got at run time.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace vmbench
{

namespace util = vmargin::util;

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : 0.5 * (values[mid - 1] + values[mid]);
}

std::string
hexHash(uint64_t hash)
{
    char text[17];
    std::snprintf(text, sizeof text, "%016llx",
                  static_cast<unsigned long long>(hash));
    return text;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

void
OutputCheck::record(size_t kind, uint64_t ops, const std::string &hash)
{
    attempted_ += ops;
    std::string &expected = kindHashes_.at(kind);
    if (expected.empty())
        expected = hash;
    else if (hash != expected) {
        std::cerr << "vmbench: batch output hash " << hash
                  << " differs from the first one, " << expected
                  << "\n";
        failed_ += ops;
    }
}

std::string
OutputCheck::hash() const
{
    std::string joined;
    for (const std::string &hash : kindHashes_) {
        if (hash.empty())
            return "";
        joined += hash;
    }
    return kindHashes_.size() == 1
               ? joined
               : hexHash(vmargin::util::hashSeed(joined));
}

uint64_t
OutputCheck::failed() const
{
    if (!pinned_.empty() && hash() != pinned_) {
        std::cerr << "vmbench: output hash " << hash()
                  << " differs from the pinned " << pinned_ << "\n";
        return attempted_;
    }
    return failed_;
}

double
bestRate(const std::vector<Batch> &batches)
{
    std::vector<std::vector<double>> times;
    std::vector<uint64_t> ops;
    std::cerr << "vmbench: batch rates (ops/s):";
    for (const Batch &batch : batches) {
        std::cerr << ' ' << static_cast<double>(batch.ops) / batch.seconds;
        if (batch.kind >= times.size()) {
            times.resize(batch.kind + 1);
            ops.resize(batch.kind + 1, 0);
        }
        times[batch.kind].push_back(batch.seconds);
        ops[batch.kind] = batch.ops;
    }
    std::cerr << '\n';
    double pass_seconds = 0.0;
    uint64_t pass_ops = 0;
    double quietest = 0.0;
    for (size_t kind = 0; kind < times.size(); ++kind) {
        const double typical = median(times[kind]);
        pass_seconds += typical;
        pass_ops += ops[kind];
        for (const double seconds : times[kind])
            if (quietest == 0.0 || seconds / typical < quietest)
                quietest = seconds / typical;
    }
    return static_cast<double>(pass_ops) / (quietest * pass_seconds);
}

namespace
{

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric, in BENCHMARK.json order. Each traced run
 *  reports all of them; a layer the workload does not exercise reads
 *  0 there. */
constexpr MetricSpec kLayerMetrics[] = {
    {"core.campaign_ms_per_cell", "ms"},
    {"sim.host_ns_per_epoch", "ns"},
    {"sim.replica_ms_per_cell", "ms"},
    {"sim.runs", "count"},
    {"sim.epochs", "count"},
    {"sim.simulated_s", "s"},
    {"core.abnormal_runs", "count"},
    {"ledger.append_ms_per_cell", "ms"},
    {"ledger.append_bytes", "bytes"},
    {"ledger.flush_batches", "count"},
    {"ledger.replay_ms", "ms"},
    {"ledger.replay_mb_per_s", "MB/s"},
    {"ledger.replay_frames", "count"},
    {"ledger.close_ms", "ms"},
    {"core.plan_ms", "ms"},
    {"core.merge_ms", "ms"},
    {"core.derive_ms", "ms"},
    {"core.emit_ms", "ms"},
    {"core.release_ms", "ms"},
    {"core.report_bytes", "bytes"},
    {"util.pool_idle_ms", "ms"},
    {"util.pool_steals", "count"},
    {"daemon.round_us", "us"},
    {"daemon.self_us_per_round", "us"},
    {"sched.governor_us_per_round", "us"},
    {"sched.supervisor_us_per_round", "us"},
    {"ledger.daemon_append_us_per_round", "us"},
    {"daemon.rounds_served", "count"},
    {"daemon.nominal_fallbacks", "count"},
    {"daemon.crashes", "count"},
    {"supervisor.backoffs", "count"},
    {"supervisor.quarantines", "count"},
    {"daemon.energy_savings_pct", "%"},
    {"setup.characterize_s", "s"},
    {"setup.profile_s", "s"},
    {"stats.fit_ms", "ms"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

constexpr const char *kEndToEnd[] = {"ops_per_s", "setup_s",
                                     "peak_rss_mb"};

struct WorkloadEntry
{
    const char *name;
    RunResult (*run)(const Options &);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"sweep_cold", runSweepCold},
    {"resume_replay", runResumeReplay},
    {"daemon_soak", runDaemonSoak},
};

[[noreturn]] void
usage(const std::string &problem)
{
    util::fatalError(
        "vmbench: " + problem +
        "\nusage: vmbench --workload "
        "sweep_cold|resume_replay|daemon_soak --seed N --seconds S "
        "--trace 0|1 [--expect HASH] [--workdir DIR] [--smoke]");
}

Options
parseArgs(int argc, char **argv)
{
    Options options;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            options.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value after '" + arg + "'");
        const std::string value = argv[++i];
        if (arg == "--workload") {
            const auto known = std::find_if(
                std::begin(kWorkloads), std::end(kWorkloads),
                [&](const WorkloadEntry &w) {
                    return value == w.name;
                });
            if (known == std::end(kWorkloads))
                usage("unknown workload '" + value + "'");
            options.workload = value;
            have_workload = true;
        } else if (arg == "--seed") {
            const long seed = util::parseLong(value, "--seed");
            if (seed < 0)
                usage("--seed must be >= 0 (got '" + value + "')");
            options.seed = static_cast<uint64_t>(seed);
        } else if (arg == "--seconds") {
            const long seconds = util::parseLong(value, "--seconds");
            if (seconds < 1 || seconds > 3600)
                usage("--seconds must be in [1, 3600] (got '" +
                      value + "')");
            options.seconds = static_cast<double>(seconds);
        } else if (arg == "--trace") {
            const long trace = util::parseLong(value, "--trace");
            if (trace != 0 && trace != 1)
                usage("--trace must be 0 or 1 (got '" + value + "')");
            options.trace = trace == 1;
        } else if (arg == "--expect") {
            options.expectHash = value;
        } else if (arg == "--workdir") {
            options.workdir = value;
        } else {
            usage("unknown option '" + arg + "'");
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return options;
}

/**
 * Parallel capacity actually available right now: @p threads spin
 * threads count loop iterations for a fixed window, divided by what
 * one thread counts alone. On an idle host it reads close to
 * @p threads; on a crowded one it shows how much less the run got.
 */
double
spinCapacity(int threads)
{
    const auto spin = [](std::atomic<bool> &stop) {
        uint64_t n = 0;
        while (!stop.load(std::memory_order_relaxed))
            ++n;
        return n;
    };
    const auto window = std::chrono::milliseconds(50);
    const auto measure = [&](int count) {
        std::atomic<bool> stop{false};
        std::vector<uint64_t> counts(static_cast<size_t>(count), 0);
        std::vector<std::thread> pool;
        for (int t = 0; t < count; ++t)
            pool.emplace_back([&, t] {
                counts[static_cast<size_t>(t)] = spin(stop);
            });
        std::this_thread::sleep_for(window);
        stop = true;
        for (auto &thread : pool)
            thread.join();
        uint64_t total = 0;
        for (const uint64_t n : counts)
            total += n;
        return static_cast<double>(total);
    };
    const double alone = measure(1);
    return alone > 0.0 ? measure(threads) / alone : 0.0;
}

std::string
fmt(double value)
{
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << value;
    return os.str();
}

} // namespace

} // namespace vmbench

int
main(int argc, char **argv)
{
    using namespace vmbench;
    const Options options = parseArgs(argc, argv);
    // A soak prints one warning per quarantine; thousands of sessions
    // would flood standard error, so the library runs silent.
    util::setLogLevel(util::LogLevel::Silent);

    const int nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
    const double capacity = spinCapacity(nproc);

    RunResult result;
    for (const WorkloadEntry &workload : kWorkloads)
        if (options.workload == workload.name)
            result = workload.run(options);

    std::map<std::string, Metric> reported;
    for (const Metric &metric : result.metrics)
        reported[metric.name] = metric;
    std::vector<Metric> metrics;
    if (options.trace) {
        for (const MetricSpec &spec : kLayerMetrics) {
            const auto it = reported.find(spec.name);
            metrics.push_back(
                {spec.name,
                 it == reported.end() ? 0.0 : it->second.value,
                 spec.unit});
        }
    } else {
        for (const char *name : kEndToEnd) {
            const auto it = reported.find(name);
            if (it == reported.end())
                util::panicf("vmbench: workload did not report ", name);
            metrics.push_back(it->second);
        }
    }

    std::cout << "host {\"nproc\":" << nproc << ",\"compiler\":\"g++ "
              << __VERSION__ << "\",\"build_type\":\""
              << VMBENCH_BUILD_TYPE << "\",\"parallel_capacity\":"
              << fmt(capacity) << ",\"workload\":\"" << options.workload
              << "\",\"seed\":" << options.seed << ",\"trace\":"
              << (options.trace ? 1 : 0) << ",\"output_hash\":\""
              << result.outputHash << "\"}\n";

    std::ostringstream json;
    json << "{\"correct\": "
         << (result.failed == 0 && result.attempted > 0 ? "true"
                                                         : "false")
         << ", \"attempted\": " << result.attempted
         << ", \"failed\": " << result.failed << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i)
        json << (i ? ", " : "") << "\"" << metrics[i].name
             << "\": {\"value\": " << fmt(metrics[i].value)
             << ", \"unit\": \"" << metrics[i].unit << "\"}";
    json << "}}";
    std::cout << json.str() << std::endl;
    return 0;
}
