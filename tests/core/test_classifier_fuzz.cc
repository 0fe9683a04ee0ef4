/**
 * @file
 * Property/fuzz tests for the log format: randomized RunResults
 * must round-trip through formatRunLog/parseRunLog with their
 * classification and counts intact, for any mix of effects, and the
 * typed site counts must survive the report text and the ledger.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/classifier.hh"
#include "core/ledger.hh"
#include "util/rng.hh"
#include "util/strings.hh"

namespace vmargin
{
namespace
{

sim::RunResult
randomRun(util::Rng &rng)
{
    sim::RunResult run;
    run.systemCrashed = rng.bernoulli(0.2);
    if (!run.systemCrashed) {
        run.applicationCrashed = rng.bernoulli(0.2);
        if (run.applicationCrashed)
            run.exitCode =
                static_cast<int>(rng.uniformInt(1, 255));
        run.completed = !run.applicationCrashed;
        run.sdcEvents =
            rng.bernoulli(0.4)
                ? static_cast<uint64_t>(rng.uniformInt(1, 50))
                : 0;
        run.outputMatches = run.completed && run.sdcEvents == 0;
        run.correctedErrors =
            rng.bernoulli(0.5)
                ? static_cast<uint64_t>(rng.uniformInt(1, 500))
                : 0;
        run.uncorrectedErrors =
            rng.bernoulli(0.3)
                ? static_cast<uint64_t>(rng.uniformInt(1, 20))
                : 0;
        // Split the corrected and uncorrected errors over random
        // sites.
        for (const auto kind : {sim::ErrorKind::Corrected,
                                sim::ErrorKind::Uncorrected}) {
            uint64_t remaining = kind == sim::ErrorKind::Corrected
                                     ? run.correctedErrors
                                     : run.uncorrectedErrors;
            while (remaining > 0) {
                sim::ErrorRecord record;
                record.kind = kind;
                record.site = static_cast<sim::ErrorSite>(
                    rng.uniformInt(0, 3));
                record.count = static_cast<uint64_t>(rng.uniformInt(
                    1, static_cast<int64_t>(remaining)));
                remaining -= record.count;
                run.errors.push_back(record);
            }
        }
    }
    run.simulatedSeconds = rng.uniform(0.001, 2.0);
    run.avgIpc = rng.uniform(0.2, 3.9);
    run.activityFactor = rng.uniform(0.2, 1.0);
    return run;
}

RunKey
randomKey(util::Rng &rng)
{
    RunKey key;
    key.workloadId =
        "fuzz/" + std::to_string(rng.uniformInt(0, 99));
    key.core = static_cast<CoreId>(rng.uniformInt(0, 7));
    key.voltage =
        static_cast<MilliVolt>(5 * rng.uniformInt(150, 196));
    key.frequency = static_cast<MegaHertz>(
        300 * rng.uniformInt(1, 8));
    key.campaign = static_cast<uint32_t>(rng.uniformInt(0, 9));
    key.runIndex = static_cast<uint32_t>(rng.uniformInt(0, 9));
    return key;
}

class ClassifierFuzzTest : public ::testing::TestWithParam<int>
{
};

/** True when the site entries of @p text are in strict name order. */
bool
inNameOrder(const std::string &text)
{
    std::string previous;
    for (const auto &entry : util::split(text, ';')) {
        const std::string name = entry.substr(0, entry.find(':'));
        if (!previous.empty() && !(previous < name))
            return false;
        previous = name;
    }
    return true;
}

TEST_P(ClassifierFuzzTest, RoundTripPreservesEverything)
{
    util::Rng rng(static_cast<Seed>(GetParam()));
    CellMeasurement cell;
    cell.workloadId = "fuzz";
    for (int i = 0; i < 200; ++i) {
        const RunKey key = randomKey(rng);
        const sim::RunResult run = randomRun(rng);
        const ClassifiedRun parsed =
            parseRunLog(formatRunLog(key, run));

        // The typed record is exactly what the text log parses to.
        const ClassifiedRun direct = classifyRunRecord(key, run);
        EXPECT_EQ(direct, parsed) << "iteration " << i;
        cell.runs.push_back(direct);

        // The report's site text lists sites by name and decodes back
        // to the same typed counts.
        for (const sim::SiteCounts *sites :
             {&direct.correctedBySite, &direct.uncorrectedBySite}) {
            std::string text;
            sim::appendSiteCounts(text, *sites);
            EXPECT_TRUE(inNameOrder(text)) << text;
            EXPECT_EQ(sim::decodeSiteCounts(text), *sites) << text;
        }
        EXPECT_EQ(direct.uncorrectedBySite.total(),
                  run.uncorrectedErrors);

        EXPECT_EQ(parsed.key.workloadId, key.workloadId);
        EXPECT_EQ(parsed.key.core, key.core);
        EXPECT_EQ(parsed.key.voltage, key.voltage);
        EXPECT_EQ(parsed.key.frequency, key.frequency);
        EXPECT_EQ(parsed.key.campaign, key.campaign);
        EXPECT_EQ(parsed.key.runIndex, key.runIndex);

        // The parser's classification must agree with the direct
        // classification of the simulator result.
        EXPECT_EQ(parsed.effects, classifyRun(run))
            << "iteration " << i;
        EXPECT_EQ(parsed.sdcEvents, run.sdcEvents);
        EXPECT_EQ(parsed.correctedErrors, run.correctedErrors);
        EXPECT_EQ(parsed.uncorrectedErrors, run.uncorrectedErrors);
        EXPECT_EQ(parsed.exitCode, run.exitCode);

        // Site counts must sum back to the CE total.
        EXPECT_EQ(parsed.correctedBySite.total(), run.correctedErrors);
    }

    // The ledger codec replays the same typed counts.
    const std::string path = "/tmp/vmargin_test_classifier_fuzz_" +
                             std::to_string(GetParam());
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "fuzz");
        ledger.open("h");
        ledger.append(1, cell);
    }
    RunLedger replayed(path, "fuzz");
    replayed.open("h");
    ASSERT_EQ(replayed.size(), 1u);
    const auto &runs = replayed.entries()[0].cell.runs;
    ASSERT_EQ(runs.size(), cell.runs.size());
    for (size_t i = 0; i < runs.size(); ++i) {
        EXPECT_EQ(runs[i].correctedBySite, cell.runs[i].correctedBySite)
            << "run " << i;
        EXPECT_EQ(runs[i].uncorrectedBySite,
                  cell.runs[i].uncorrectedBySite)
            << "run " << i;
    }
    std::remove(path.c_str());
}

TEST_P(ClassifierFuzzTest, CampaignLogOfManyRunsSplitsExactly)
{
    util::Rng rng(static_cast<Seed>(GetParam()) + 1000);
    std::vector<std::string> log;
    std::vector<EffectSet> expected;
    const int n = 50;
    for (int i = 0; i < n; ++i) {
        const RunKey key = randomKey(rng);
        const sim::RunResult run = randomRun(rng);
        const auto lines = formatRunLog(key, run);
        log.insert(log.end(), lines.begin(), lines.end());
        expected.push_back(classifyRun(run));
    }
    const auto runs = parseCampaignLog(log);
    ASSERT_EQ(runs.size(), static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(runs[static_cast<size_t>(i)].effects,
                  expected[static_cast<size_t>(i)]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClassifierFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5));

} // namespace
} // namespace vmargin
