/**
 * @file
 * Cell-result cache: persistence round-trips, config-hash keying
 * (an entry recorded under a different FrameworkConfig hash must be
 * rejected, mirroring the journal's config-mismatch refusal), and
 * framework-level cache-served sweeps.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/cellcache.hh"
#include "core/resultstore.hh"
#include "ledger_files.hh"
#include "obs/metrics.hh"
#include "sim/platform.hh"
#include "workloads/spec.hh"

namespace vmargin
{
namespace
{

using ledger_files::encoded;

/** Current value of an exact executor counter; tests read deltas. */
uint64_t
counterValue(const char *name)
{
    return obs::Registry::global().counter(name).value();
}

constexpr const char *kCacheHits = "executor.cache_hits";

FrameworkConfig
smallConfig()
{
    FrameworkConfig config;
    config.workloads = {wl::findWorkload("leslie3d/ref")};
    config.cores = {0, 4};
    config.campaigns = 2;
    config.maxEpochs = 8;
    config.startVoltage = 930;
    config.endVoltage = 870;
    return config;
}

CellMeasurement
measuredCell(const std::string &path)
{
    // Produce one genuine measurement by characterizing with a
    // cache attached; return the journal-shaped cell by reloading.
    sim::Platform platform(sim::XGene2Params{}, sim::ChipCorner::TTT,
                           3);
    CharacterizationFramework framework(&platform);
    FrameworkConfig config = smallConfig();
    config.cachePath = path;
    (void)framework.characterize(config);
    CellResultCache cache(path);
    cache.open();
    const auto *cell =
        cache.find(cellConfigHash(config, platform),
                   chipRefOf(platform), "leslie3d/ref", 0);
    EXPECT_NE(cell, nullptr);
    return *cell;
}

TEST(CellCache, PutFindRoundTripsAcrossReopen)
{
    const std::string path = "/tmp/vmargin_test_cellcache_rt";
    std::remove(path.c_str());

    const CellMeasurement cell = measuredCell(path);
    EXPECT_FALSE(cell.runs.empty());

    CellResultCache reopened(path);
    reopened.open();
    ASSERT_EQ(reopened.size(), 2u) << "both cells cached";

    sim::Platform platform(sim::XGene2Params{}, sim::ChipCorner::TTT,
                           3);
    const Seed hash = cellConfigHash(smallConfig(), platform);
    const auto *found =
        reopened.find(hash, chipRefOf(platform), "leslie3d/ref", 0);
    ASSERT_NE(found, nullptr);
    ASSERT_EQ(found->runs.size(), cell.runs.size());
    for (size_t i = 0; i < cell.runs.size(); ++i) {
        EXPECT_EQ(found->runs[i].key.voltage,
                  cell.runs[i].key.voltage);
        EXPECT_EQ(found->runs[i].effects.toString(),
                  cell.runs[i].effects.toString());
        EXPECT_EQ(found->runs[i].avgIpc, cell.runs[i].avgIpc);
    }
    EXPECT_TRUE(found->records.empty())
        << "the ledger persists classified records, not run records";
    EXPECT_EQ(found->telemetry.retries, cell.telemetry.retries);
    std::remove(path.c_str());
}

TEST(CellCache, RejectsEntryFromDifferentConfigHash)
{
    const std::string path = "/tmp/vmargin_test_cellcache_hash";
    std::remove(path.c_str());
    (void)measuredCell(path);

    CellResultCache cache(path);
    cache.open();
    ASSERT_GT(cache.size(), 0u);

    sim::Platform platform(sim::XGene2Params{}, sim::ChipCorner::TTT,
                           3);
    FrameworkConfig other = smallConfig();
    other.endVoltage = 900; // different measurement shape
    const Seed other_hash = cellConfigHash(other, platform);
    EXPECT_NE(other_hash, cellConfigHash(smallConfig(), platform));
    EXPECT_EQ(cache.find(other_hash, chipRefOf(platform),
                         "leslie3d/ref", 0),
              nullptr)
        << "an entry recorded under a different config hash must "
           "be rejected";

    // A different chip (serial) must likewise miss.
    sim::Platform other_chip(sim::XGene2Params{},
                             sim::ChipCorner::TTT, 4);
    EXPECT_EQ(cache.find(cellConfigHash(smallConfig(), other_chip),
                         chipRefOf(other_chip), "leslie3d/ref", 0),
              nullptr);
    std::remove(path.c_str());
}

TEST(CellCache, ServesRepeatedSweepWithoutRemeasuring)
{
    const std::string path = "/tmp/vmargin_test_cellcache_serve";
    std::remove(path.c_str());

    sim::Platform platform(sim::XGene2Params{}, sim::ChipCorner::TTT,
                           3);
    CharacterizationFramework framework(&platform);
    FrameworkConfig config = smallConfig();
    config.cachePath = path;
    uint64_t hits_before = counterValue(kCacheHits);
    const auto first = framework.characterize(config);
    EXPECT_EQ(counterValue(kCacheHits) - hits_before, 0u);

    hits_before = counterValue(kCacheHits);
    const auto second = framework.characterize(config);
    EXPECT_EQ(counterValue(kCacheHits) - hits_before, 2u)
        << "every cell must be served from the cache";
    EXPECT_EQ(serializeReport(second), serializeReport(first))
        << "a cache-served sweep must reproduce the measured "
           "report byte for byte";

    // A changed measurement knob must miss and re-measure.
    FrameworkConfig changed = config;
    changed.endVoltage = 900;
    hits_before = counterValue(kCacheHits);
    const auto remeasured = framework.characterize(changed);
    EXPECT_EQ(counterValue(kCacheHits) - hits_before, 0u);
    std::remove(path.c_str());
}

TEST(CellCache, TruncatedTailIsDiscarded)
{
    const std::string path = "/tmp/vmargin_test_cellcache_trunc";
    std::remove(path.c_str());
    (void)measuredCell(path);

    {
        // Half of a run frame, as a killed process would leave it.
        RunRecord run;
        run.key.workloadId = "leslie3d/ref";
        run.key.core = 7;
        run.key.voltage = 930;
        std::string frame;
        appendFrame(frame, encoded(encodeRunRecordInto, run));
        std::ofstream out(path,
                          std::ios::binary | std::ios::app);
        out << frame.substr(0, frame.size() / 2);
    }

    CellResultCache cache(path);
    cache.open();
    EXPECT_EQ(cache.size(), 2u)
        << "the killed-process tail must not be trusted";
    std::remove(path.c_str());
}

TEST(CellCacheDeath, RefusesForeignFile)
{
    const std::string path = "/tmp/vmargin_test_cellcache_foreign";
    {
        std::ofstream out(path);
        out << "not a cache\n";
    }
    CellResultCache cache(path);
    EXPECT_EXIT(cache.open(), ::testing::ExitedWithCode(1),
                "cellcache");
    std::remove(path.c_str());
}

} // namespace
} // namespace vmargin
