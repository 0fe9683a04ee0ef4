/**
 * @file
 * The telemetry plane's out-of-band contract, end to end:
 *
 *  - enabling a telemetry sink must not move a single byte of the
 *    serialized campaign or fleet report (under fault injection, at
 *    several worker counts);
 *  - the exact-class counter section must come out byte-identical
 *    for workers {1, 2, 8} — the telemetry side of the determinism
 *    contract the executor's report hash asserts;
 *  - the JSONL artifact itself must exist, grow one line per flush,
 *    and carry the metric keys CI gates on;
 *  - the single-chip and fleet entry points share one sweep engine,
 *    so they must move the same exact counters and spans.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "core/executor.hh"
#include "core/fleet.hh"
#include "core/framework.hh"
#include "core/resultstore.hh"
#include "obs/metrics.hh"
#include "workloads/spec.hh"

namespace vmargin
{
namespace
{

sim::FaultPlanConfig
hostilePlan()
{
    sim::FaultPlanConfig plan;
    plan.i2cWriteFailure = 0.10;
    plan.watchdogMiss = 0.05;
    plan.managementHang = 0.002;
    plan.staleRead = 0.05;
    plan.seed = 99;
    return plan;
}

FrameworkConfig
sweepConfig()
{
    FrameworkConfig config;
    config.workloads = {wl::findWorkload("bwaves/ref"),
                        wl::findWorkload("leslie3d/ref")};
    config.cores = {0, 2, 4, 6};
    config.campaigns = 2;
    config.maxEpochs = 8;
    config.startVoltage = 930;
    config.endVoltage = 870;
    return config;
}

/** One faulted sweep; returns the serialized report and, via
 *  @p counters_out, the exact-counter JSON it accumulated. */
std::string
sweep(int workers, const std::string &telemetry_path,
      std::string *counters_out = nullptr)
{
    obs::Registry::global().reset();
    sim::Platform platform(sim::XGene2Params{}, sim::ChipCorner::TTT,
                           7);
    platform.installFaultPlan(hostilePlan());
    CharacterizationFramework framework(&platform);
    FrameworkConfig config = sweepConfig();
    config.workers = workers;
    config.telemetryPath = telemetry_path;
    const auto report = framework.characterize(config);
    if (counters_out)
        *counters_out = obs::Registry::global().countersJson();
    return serializeReport(report);
}

/** One two-chip fleet sweep; like sweep(), but the fleet report. */
std::string
fleetSweep(int workers, const std::string &telemetry_path,
           std::string *counters_out = nullptr)
{
    obs::Registry::global().reset();
    sim::Platform platform(sim::XGene2Params{}, sim::ChipCorner::TTT,
                           1);
    FleetConfig config;
    config.chips = parseFleetSpec({"TTT", "TFF:2"});
    config.framework = sweepConfig();
    config.framework.workers = workers;
    config.framework.telemetryPath = telemetry_path;
    FleetExecutor executor(&platform);
    const std::string report = executor.run(config).serialize();
    if (counters_out)
        *counters_out = obs::Registry::global().countersJson();
    return report;
}

std::vector<std::string>
linesOf(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> out;
    for (std::string line; std::getline(in, line);)
        out.push_back(line);
    return out;
}

TEST(Telemetry, SinkDoesNotPerturbTheReport)
{
    const std::string path = "/tmp/vmargin_telemetry_onoff.jsonl";
    std::remove(path.c_str());
    for (const int workers : {1, 2, 8}) {
        const std::string off = sweep(workers, "");
        const std::string on = sweep(workers, path);
        EXPECT_EQ(on, off)
            << "telemetry at " << workers
            << " workers moved report bytes — it must be strictly "
               "out-of-band";
    }
    std::remove(path.c_str());
}

TEST(Telemetry, ExactCountersIdenticalAcrossWorkerCounts)
{
    std::string one, two, eight;
    const std::string report_one = sweep(1, "", &one);
    const std::string report_two = sweep(2, "", &two);
    const std::string report_eight = sweep(8, "", &eight);
    // Guard: the runs themselves must agree before the counters can.
    ASSERT_EQ(report_two, report_one);
    ASSERT_EQ(report_eight, report_one);
    EXPECT_EQ(two, one)
        << "exact counters must not depend on the worker count";
    EXPECT_EQ(eight, one)
        << "exact counters must not depend on the worker count";
    EXPECT_NE(one.find("\"executor.cells_planned\":8"),
              std::string::npos)
        << one;

    // The same contract for a fleet sweep.
    std::string fleet_one, fleet_four, fleet_eight;
    const std::string fleet_report = fleetSweep(1, "", &fleet_one);
    ASSERT_EQ(fleetSweep(4, "", &fleet_four), fleet_report);
    ASSERT_EQ(fleetSweep(8, "", &fleet_eight), fleet_report);
    EXPECT_EQ(fleet_four, fleet_one)
        << "fleet exact counters must not depend on the worker count";
    EXPECT_EQ(fleet_eight, fleet_one)
        << "fleet exact counters must not depend on the worker count";
    EXPECT_NE(fleet_one.find("\"executor.cells_planned\":16"),
              std::string::npos)
        << fleet_one;
}

TEST(Telemetry, JsonlArtifactCarriesTheGatedKeys)
{
    const std::string path = "/tmp/vmargin_telemetry_keys.jsonl";
    std::remove(path.c_str());
    (void)sweep(4, path);
    const auto lines = linesOf(path);
    ASSERT_GE(lines.size(), 2u)
        << "expected at least one phase flush plus the final drain";
    const std::string &last = lines.back();
    EXPECT_NE(last.find("\"schema\":\"vmargin-telemetry-v1\""),
              std::string::npos);
    EXPECT_NE(last.find("\"executor.cells_planned\":8"),
              std::string::npos);
    EXPECT_NE(last.find("\"executor.cells_fresh\":8"),
              std::string::npos);
    EXPECT_NE(last.find("\"executor.cache_hits\":"), std::string::npos);
    EXPECT_NE(last.find("\"executor.plan\":{"), std::string::npos);
    EXPECT_NE(last.find("\"executor.execute\":{"), std::string::npos);
    EXPECT_NE(last.find("\"executor.merge\":{"), std::string::npos);
    EXPECT_NE(last.find("threadpool.tasks"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Telemetry, FleetReportUnmovedBySink)
{
    const std::string path = "/tmp/vmargin_telemetry_fleet.jsonl";
    std::remove(path.c_str());

    const std::string off = fleetSweep(4, "");
    const std::string on = fleetSweep(4, path);
    EXPECT_EQ(on, off);
    const auto lines = linesOf(path);
    ASSERT_FALSE(lines.empty());
    const std::string &last = lines.back();
    EXPECT_NE(last.find("\"executor.cells_fresh\":16"),
              std::string::npos)
        << last;
    EXPECT_NE(last.find("\"executor.merge_barrier\":{"),
              std::string::npos)
        << last;
    EXPECT_NE(last.find("\"executor.merge\":{"), std::string::npos)
        << last;
    std::remove(path.c_str());
}

/**
 * The exact counters and spans that @p run moves, on a zeroed
 * global registry ("counter <name>" / "span <name>"). Names other
 * code registered but this run never touched are left out.
 */
std::set<std::string>
movedMetrics(const std::function<void()> &run)
{
    obs::Registry &reg = obs::Registry::global();
    reg.reset();
    run();
    std::set<std::string> moved;
    // Every JSON key that ends in @p tail and is followed by a
    // non-zero count.
    const auto collect = [&](const std::string &json,
                             const std::string &tail,
                             const std::string &kind) {
        for (size_t end = json.find(tail); end != std::string::npos;
             end = json.find(tail, end + 1)) {
            const size_t begin = json.rfind('"', end - 1) + 1;
            if (std::strtoull(json.c_str() + end + tail.size(), nullptr,
                              10) > 0)
                moved.insert(kind + " " +
                             json.substr(begin, end - begin));
        }
    };
    collect(reg.countersJson(), "\":", "counter");
    collect(reg.snapshotJson(0), "\":{\"count\":", "span");
    return moved;
}

TEST(Telemetry, CampaignAndFleetMoveTheSameMetrics)
{
    // Each entry point sweeps twice over one cache file: a fresh
    // pass (cache misses, measured cells) and a cache-served rerun.
    const std::string path = "/tmp/vmargin_telemetry_same_metrics";
    const std::set<std::string> campaign = movedMetrics([&] {
        std::remove(path.c_str());
        sim::Platform platform(sim::XGene2Params{},
                               sim::ChipCorner::TTT, 7);
        FrameworkConfig config = sweepConfig();
        config.workers = 2;
        config.cachePath = path;
        CampaignExecutor executor(&platform);
        (void)executor.run(config);
        (void)executor.run(config);
    });
    const std::set<std::string> fleet = movedMetrics([&] {
        std::remove(path.c_str());
        sim::Platform platform(sim::XGene2Params{},
                               sim::ChipCorner::TTT, 1);
        FleetConfig config;
        config.chips = parseFleetSpec({"TTT", "TFF:2"});
        config.framework = sweepConfig();
        config.framework.workers = 2;
        config.framework.cachePath = path;
        FleetExecutor executor(&platform);
        (void)executor.run(config);
        (void)executor.run(config);
    });
    std::remove(path.c_str());

    EXPECT_EQ(campaign, fleet);
    EXPECT_EQ(fleet.count("counter executor.cache_hits"), 1u);
    EXPECT_EQ(fleet.count("span executor.cell"), 1u);
}

TEST(Telemetry, FleetCacheRerunCountsEveryCellAsAHit)
{
    const std::string path = "/tmp/vmargin_telemetry_fleet_cache";
    std::remove(path.c_str());
    sim::Platform platform(sim::XGene2Params{}, sim::ChipCorner::TTT,
                           1);
    FleetConfig config;
    config.chips = parseFleetSpec({"TTT", "TFF:2"});
    config.framework = sweepConfig();
    config.framework.workers = 4;
    config.framework.cachePath = path;
    FleetExecutor executor(&platform);
    (void)executor.run(config);

    obs::Registry::global().reset();
    (void)executor.run(config);
    const std::string counters = obs::Registry::global().countersJson();
    // 2 chips x 2 workloads x 4 cores, every one served by the cache.
    EXPECT_NE(counters.find("\"executor.cache_hits\":16"),
              std::string::npos)
        << counters;
    std::remove(path.c_str());
}

} // namespace
} // namespace vmargin
