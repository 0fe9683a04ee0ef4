/**
 * @file
 * Result goldens: the serialized campaign and fleet reports of one
 * fixed 8-cell sweep, pinned to literal hashes.
 *
 * The determinism suites compare runs against each other (worker
 * count, chip order, kill+resume); these tests compare them against
 * the bytes this revision is known to produce. A change to any
 * report byte — a shifted failure threshold, a reordered row, a
 * reformatted number — fails here, at every worker count and for
 * either chip enumeration order, so a margin finding stays
 * reproducible bit for bit from the repository's own test suite.
 * The journal of the same sweep is pinned too, so the ledger codec
 * cannot change the bytes it writes without failing here.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/fleet.hh"
#include "core/framework.hh"
#include "core/resultstore.hh"
#include "obs/metrics.hh"
#include "util/rng.hh"
#include "workloads/spec.hh"

namespace vmargin
{
namespace
{

/** 2 workloads x 4 cores, 930 -> 845 mV, three campaigns each. */
FrameworkConfig
eightCellConfig(int workers)
{
    FrameworkConfig config;
    config.workloads = {wl::findWorkload("bwaves/ref"),
                        wl::findWorkload("mcf/ref")};
    config.cores = {0, 2, 4, 6};
    config.campaigns = 3;
    config.maxEpochs = 10;
    config.startVoltage = 930;
    config.endVoltage = 845;
    config.workers = workers;
    return config;
}

sim::Platform
templatePlatform()
{
    return sim::Platform(sim::XGene2Params{}, sim::ChipCorner::TTT, 1);
}

std::string
hex(Seed hash)
{
    std::ostringstream os;
    os << std::hex << hash;
    return os.str();
}

std::string
campaignHash(int workers)
{
    sim::Platform platform = templatePlatform();
    CharacterizationFramework framework(&platform);
    return hex(util::hashSeed(
        serializeReport(framework.characterize(eightCellConfig(workers)))));
}

/** The first @p chips parts of a typical/fast/slow/typical rack. */
std::vector<std::string>
fleetOf(int chips)
{
    const std::vector<std::string> pool = {"TTT", "TFF:2", "TSS:3",
                                           "TTT:4"};
    return {pool.begin(), pool.begin() + chips};
}

std::string
fleetHash(const std::vector<std::string> &chip_specs, int workers)
{
    sim::Platform platform = templatePlatform();
    FleetConfig config;
    config.chips = parseFleetSpec(chip_specs);
    config.framework = eightCellConfig(workers);
    FleetExecutor executor(&platform);
    return hex(util::hashSeed(executor.run(config).serialize()));
}

TEST(ResultGolden, CampaignReportHashAtAnyWorkerCount)
{
    for (const int workers : {1, 2, 8})
        EXPECT_EQ(campaignHash(workers), "8084f6245892415e")
            << "campaign report bytes changed at " << workers
            << " workers";
}

TEST(ResultGolden, JournalBytesAndResumeArePinned)
{
    // One worker measures the cells in plan order, so its journal
    // bytes are fixed; more workers commit cells in completion
    // order. The journal is pinned at one worker only; the resumed
    // report is not.
    const std::string path = "/tmp/vmargin_result_golden_journal";
    std::remove(path.c_str());
    FrameworkConfig config = eightCellConfig(1);
    config.journalPath = path;
    {
        sim::Platform platform = templatePlatform();
        CharacterizationFramework framework(&platform);
        (void)framework.characterize(config);
    }
    std::ifstream in(path, std::ios::binary);
    const std::string bytes{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
    EXPECT_EQ(bytes.size(), 49111u);
    EXPECT_EQ(hex(util::hashSeed(bytes)), "583604082bf3bc70")
        << "journal bytes changed";

    obs::Counter &from_journal = obs::Registry::global().counter(
        "executor.cells_from_journal");
    const uint64_t before = from_journal.value();
    sim::Platform platform = templatePlatform();
    CharacterizationFramework framework(&platform);
    EXPECT_EQ(hex(util::hashSeed(
                  serializeReport(framework.characterize(config)))),
              "8084f6245892415e");
    EXPECT_EQ(from_journal.value() - before, 8u);
    std::remove(path.c_str());
}

TEST(ResultGolden, JournaledAndCachedSweepResumesToTheSameReport)
{
    // Fresh cells move out of the plan, replayed ones out of the
    // journal, cached ones are copied: every path gives one report.
    const std::string journal = "/tmp/vmargin_result_golden_jc_journal";
    const std::string cache = "/tmp/vmargin_result_golden_jc_cache";
    for (const int workers : {1, 2, 8}) {
        SCOPED_TRACE(workers);
        std::remove(journal.c_str());
        std::remove(cache.c_str());
        FrameworkConfig config = eightCellConfig(workers);
        config.journalPath = journal;
        config.cachePath = cache;
        for (const char *pass : {"fresh", "resumed"}) {
            sim::Platform platform = templatePlatform();
            CharacterizationFramework framework(&platform);
            EXPECT_EQ(hex(util::hashSeed(serializeReport(
                          framework.characterize(config)))),
                      "8084f6245892415e")
                << pass;
        }
        // Journal gone, cache kept: every cell is served copied.
        std::remove(journal.c_str());
        sim::Platform platform = templatePlatform();
        CharacterizationFramework framework(&platform);
        EXPECT_EQ(hex(util::hashSeed(
                      serializeReport(framework.characterize(config)))),
                  "8084f6245892415e")
            << "cache-served";
    }
    std::remove(journal.c_str());
    std::remove(cache.c_str());
}

TEST(ResultGolden, FleetReportHashPerFleetSize)
{
    EXPECT_EQ(fleetHash(fleetOf(1), 4), "ec7f284413a311a6");
    EXPECT_EQ(fleetHash(fleetOf(2), 4), "7228959e5ff1e35b");
}

TEST(ResultGolden, FourChipFleetHashAcrossWorkersAndChipOrder)
{
    const char *const golden = "787fd0445e32c799";
    for (const int workers : {1, 8})
        EXPECT_EQ(fleetHash(fleetOf(4), workers), golden)
            << "fleet report bytes changed at " << workers
            << " workers";
    std::vector<std::string> reversed = fleetOf(4);
    std::reverse(reversed.begin(), reversed.end());
    EXPECT_EQ(fleetHash(reversed, 4), golden)
        << "fleet report depends on the chip enumeration order";
}

} // namespace
} // namespace vmargin
