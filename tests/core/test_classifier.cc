/**
 * @file
 * Unit tests for the execution-phase log format and the parsing
 * phase.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string_view>

#include "core/classifier.hh"
#include "core/resultstore.hh"
#include "sim/cache_hierarchy.hh"
#include "util/csv.hh"
#include "util/rng.hh"
#include "workloads/spec.hh"

namespace vmargin
{
namespace
{

RunKey
key()
{
    RunKey k;
    k.workloadId = "bwaves/ref";
    k.core = 4;
    k.voltage = 905;
    k.frequency = 2400;
    k.campaign = 2;
    k.runIndex = 7;
    return k;
}

TEST(Classifier, CleanRunRoundTrip)
{
    sim::RunResult run;
    run.completed = true;
    run.outputMatches = true;
    run.simulatedSeconds = 0.125;
    run.avgIpc = 1.43;
    run.activityFactor = 0.61;

    const ClassifiedRun parsed = parseRunLog(formatRunLog(key(), run));
    EXPECT_EQ(parsed.key.workloadId, "bwaves/ref");
    EXPECT_EQ(parsed.key.core, 4);
    EXPECT_EQ(parsed.key.voltage, 905);
    EXPECT_EQ(parsed.key.frequency, 2400);
    EXPECT_EQ(parsed.key.campaign, 2u);
    EXPECT_EQ(parsed.key.runIndex, 7u);
    EXPECT_TRUE(parsed.effects.normal());
    EXPECT_NEAR(parsed.seconds, 0.125, 1e-6);
    EXPECT_NEAR(parsed.avgIpc, 1.43, 1e-4);
    EXPECT_NEAR(parsed.activityFactor, 0.61, 1e-4);
}

TEST(Classifier, SdcRun)
{
    sim::RunResult run;
    run.completed = true;
    run.outputMatches = false;
    run.sdcEvents = 3;
    const ClassifiedRun parsed = parseRunLog(formatRunLog(key(), run));
    EXPECT_TRUE(parsed.effects.has(Effect::SDC));
    EXPECT_EQ(parsed.sdcEvents, 3u);
}

TEST(Classifier, EdacCountsAndSites)
{
    sim::RunResult run;
    run.completed = true;
    run.outputMatches = true;
    run.correctedErrors = 9;
    run.uncorrectedErrors = 2;
    sim::ErrorRecord record;
    record.kind = sim::ErrorKind::Corrected;
    record.site = sim::ErrorSite::L2Cache;
    record.count = 9;
    run.errors.push_back(record);

    const auto lines = formatRunLog(key(), run);
    bool has_site_line = false;
    for (const auto &line : lines)
        has_site_line = has_site_line ||
                        line.find("site=L2Cache") != std::string::npos;
    EXPECT_TRUE(has_site_line)
        << "location detail must be logged (section 2.2)";

    const ClassifiedRun parsed = parseRunLog(lines);
    EXPECT_TRUE(parsed.effects.has(Effect::CE));
    EXPECT_TRUE(parsed.effects.has(Effect::UE));
    EXPECT_EQ(parsed.correctedErrors, 9u);
    EXPECT_EQ(parsed.uncorrectedErrors, 2u);
    EXPECT_EQ(parsed.correctedBySite[sim::ErrorSite::L2Cache], 9u);
    EXPECT_EQ(parsed.correctedBySite.populated(), 1u);
    EXPECT_EQ(parsed.uncorrectedBySite, sim::SiteCounts{});
}

TEST(Classifier, ApplicationCrash)
{
    sim::RunResult run;
    run.applicationCrashed = true;
    run.exitCode = 139;
    const ClassifiedRun parsed = parseRunLog(formatRunLog(key(), run));
    EXPECT_TRUE(parsed.effects.has(Effect::AC));
    EXPECT_FALSE(parsed.effects.has(Effect::SDC));
    EXPECT_EQ(parsed.exitCode, 139);
}

TEST(Classifier, SystemCrash)
{
    sim::RunResult run;
    run.systemCrashed = true;
    const ClassifiedRun parsed = parseRunLog(formatRunLog(key(), run));
    EXPECT_TRUE(parsed.effects.has(Effect::SC));
    EXPECT_FALSE(parsed.effects.has(Effect::AC))
        << "a hung machine reports no exit code";
}

TEST(Classifier, CampaignLogSplitsRuns)
{
    sim::RunResult clean;
    clean.completed = true;
    clean.outputMatches = true;
    sim::RunResult crashed;
    crashed.systemCrashed = true;

    std::vector<std::string> log = formatRunLog(key(), clean);
    RunKey second = key();
    second.runIndex = 8;
    second.voltage = 900;
    const auto more = formatRunLog(second, crashed);
    log.insert(log.end(), more.begin(), more.end());

    const auto runs = parseCampaignLog(log);
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_TRUE(runs[0].effects.normal());
    EXPECT_TRUE(runs[1].effects.has(Effect::SC));
    EXPECT_EQ(runs[1].key.voltage, 900);
}

TEST(Classifier, CsvRowMatchesHeader)
{
    sim::RunResult run;
    run.completed = true;
    run.outputMatches = false;
    const ClassifiedRun parsed = parseRunLog(formatRunLog(key(), run));
    ClassifiedRun multi = parsed;
    multi.effects.add(Effect::CE);
    std::string csv;
    appendRunCsv(csv, {{parsed, multi}});
    const util::CsvDocument doc = util::parseCsv(csv);
    ASSERT_EQ(doc.rows.size(), 2u);
    EXPECT_EQ(doc.header.size(), doc.rows[0].size());
    EXPECT_EQ(doc.at(0, "workload"), "bwaves/ref");
    EXPECT_EQ(doc.at(0, "effects"), "SDC");
    // A multi-effect field is quoted, since its names are
    // comma-separated.
    EXPECT_NE(csv.find(",\"SDC,CE\","), std::string::npos) << csv;
    EXPECT_EQ(doc.at(1, "effects"), "SDC,CE");
}

TEST(Classifier, SiteCountEncodingRoundTrip)
{
    sim::SiteCounts sites;
    sites[sim::ErrorSite::L2Cache] = 9;
    sites[sim::ErrorSite::L3Cache] = 2;
    sites[sim::ErrorSite::Dram] = 1;
    // Name order, which the report and ledger bytes depend on; the
    // text is written at the cursor, after what the buffer holds.
    char buffer[4 + sim::kSiteCountsMaxChars] = "row,";
    char *end = sim::writeSiteCounts(buffer + 4, sites);
    EXPECT_EQ(std::string(buffer, end), "row,DRAM:1;L2Cache:9;L3Cache:2");
    EXPECT_EQ(sim::decodeSiteCounts(std::string(buffer + 4, end)), sites);
    EXPECT_EQ(sim::decodeSiteCounts(""), sim::SiteCounts{});
    EXPECT_EQ(sim::writeSiteCounts(buffer + 4, {}), buffer + 4);
}

TEST(Classifier, MalformedSiteCountsAreReported)
{
    // Malformed site counts are reported, not fatal: the caller
    // decides (the report decoder names the value, column and row).
    EXPECT_FALSE(sim::decodeSiteCounts("L2Cache").has_value());
    EXPECT_FALSE(sim::decodeSiteCounts("L2Cache:x").has_value());
    EXPECT_FALSE(sim::decodeSiteCounts("L2Cache:").has_value());
    EXPECT_FALSE(sim::decodeSiteCounts("L2Cache:-1").has_value());
    EXPECT_FALSE(sim::decodeSiteCounts("L2Cache:1;").has_value());
    // Entries no encoder writes: an unknown site, a repeated site, a
    // zero count (it would not re-encode to the same text).
    EXPECT_FALSE(sim::decodeSiteCounts("Bogus:3").has_value());
    EXPECT_FALSE(sim::decodeSiteCounts(":3").has_value());
    EXPECT_FALSE(
        sim::decodeSiteCounts("L2Cache:1;L2Cache:2").has_value());
    EXPECT_FALSE(sim::decodeSiteCounts("DRAM:0").has_value());
}

TEST(Classifier, SiteCountsHostileText)
{
    sim::SiteCounts two;
    two[sim::ErrorSite::Dram] = 1;
    two[sim::ErrorSite::L2Cache] = 9;
    // Accepted: any entry order, the largest count; nothing else.
    EXPECT_EQ(sim::decodeSiteCounts("L2Cache:9;DRAM:1"), two);
    EXPECT_EQ(sim::decodeSiteCounts("DRAM:1;L2Cache:9"), two);
    sim::SiteCounts most;
    most[sim::ErrorSite::L1Cache] = UINT64_MAX;
    EXPECT_EQ(sim::decodeSiteCounts("L1Cache:18446744073709551615"),
              most);
    EXPECT_EQ(sim::decodeSiteCounts(""), sim::SiteCounts{});
    // Refused: nothing is trimmed, no entry may be empty, a count is
    // decimal digits that fit, and addNamed's rules hold (unknown
    // or repeated site, zero count).
    for (const char *text :
         {" DRAM:1", "DRAM :1", "DRAM: 1", "DRAM:1 ", "DRAM:1;;L2Cache:9",
          ";DRAM:1", "DRAM:1;", ";", " ", "DRAM:+1", "DRAM:0x1",
          "DRAM:1:2", "DRAM:18446744073709551616", "dram:1", "NO",
          "DRAM:1;DRAM:1", "DRAM:1;L2Cache:0", "DRAM,1", "DRAM:1,L2Cache:9"})
        EXPECT_EQ(sim::decodeSiteCounts(text), std::nullopt) << text;
}

TEST(Classifier, DeathOnEmptyLog)
{
    EXPECT_DEATH(parseRunLog({}), "empty log");
}

// ---- zero-copy equivalence ------------------------------------
// The campaign now classifies runs directly from RunResult
// (classifyRunRecord) instead of formatting a text log and reparsing
// it. These tests pin the contract: for every effect class the
// direct construction equals parse(format(x)) field for field —
// including the doubles, which must pass through the log format's
// fixed precision.

void
expectEquivalent(const RunKey &k, const sim::RunResult &run,
                 const std::string &what)
{
    const ClassifiedRun direct = classifyRunRecord(k, run);
    const ClassifiedRun round_trip =
        parseRunLog(formatRunLog(k, run));
    EXPECT_EQ(direct, round_trip) << what;
}

TEST(ClassifyRunRecord, CompletedRunMatchesRoundTrip)
{
    sim::RunResult run;
    run.completed = true;
    run.outputMatches = true;
    // Awkward values that do NOT survive the log's fixed precision
    // untouched — the direct path must quantize identically.
    run.simulatedSeconds = 0.123456789;
    run.avgIpc = 1.99995;
    run.activityFactor = 1.0 / 3.0;
    expectEquivalent(key(), run, "completed");
}

TEST(ClassifyRunRecord, SdcRunMatchesRoundTrip)
{
    sim::RunResult run;
    run.completed = true;
    run.outputMatches = false;
    run.sdcEvents = 41;
    run.simulatedSeconds = 2.5e-7; // rounds to 0.000000 in the log
    expectEquivalent(key(), run, "sdc");
}

TEST(ClassifyRunRecord, EccSiteRunMatchesRoundTrip)
{
    sim::RunResult run;
    run.completed = true;
    run.outputMatches = true;
    run.correctedErrors = 12;
    run.uncorrectedErrors = 3;

    sim::ErrorRecord ce_l2;
    ce_l2.kind = sim::ErrorKind::Corrected;
    ce_l2.site = sim::ErrorSite::L2Cache;
    ce_l2.count = 7;
    sim::ErrorRecord ce_l2_again = ce_l2; // same site aggregates
    ce_l2_again.count = 5;
    sim::ErrorRecord ue_l3;
    ue_l3.kind = sim::ErrorKind::Uncorrected;
    ue_l3.site = sim::ErrorSite::L3Cache;
    ue_l3.count = 3;
    run.errors = {ce_l2, ce_l2_again, ue_l3};
    expectEquivalent(key(), run, "ecc-sites");
}

TEST(ClassifyRunRecord, ApplicationCrashMatchesRoundTrip)
{
    sim::RunResult run;
    run.applicationCrashed = true;
    run.exitCode = 139;
    run.simulatedSeconds = 0.0421337;
    expectEquivalent(key(), run, "app-crash");
}

TEST(ClassifyRunRecord, SystemCrashMatchesRoundTrip)
{
    sim::RunResult run;
    run.systemCrashed = true;
    run.exitCode = -1;
    expectEquivalent(key(), run, "system-crash");
}

TEST(ClassifyRunRecord, RealKernelRunsMatchRoundTrip)
{
    // Sweep a real core across the fault regimes so the equivalence
    // also holds for results the simulator actually produces (full
    // counters, organic error records, precision-limited doubles).
    sim::XGene2Params params;
    sim::CacheHierarchy caches(params);
    sim::Core core(0, params, &caches);

    sim::OnsetSet onsets;
    onsets.sdc = 900;
    onsets.ce = 905;
    onsets.ue = 885;
    onsets.ac = 880;
    onsets.sc = 870;

    for (const MilliVolt v : {980, 910, 890, 875, 860}) {
        sim::ExecutionConfig config;
        config.voltage = v;
        config.seed =
            util::mixSeed(0xE9C1ULL, static_cast<uint64_t>(v));
        config.maxEpochs = 12;
        caches.invalidateAll();
        const sim::RunResult run =
            core.run(wl::findWorkload("bwaves/ref"), onsets, config);

        RunKey k = key();
        k.voltage = v;
        expectEquivalent(k, run,
                         "kernel run at " + std::to_string(v) +
                             " mV");
    }
}

TEST(Classifier, FormatCampaignLogConcatenatesRecords)
{
    sim::RunResult clean;
    clean.completed = true;
    clean.outputMatches = true;
    sim::RunResult crashed;
    crashed.systemCrashed = true;

    RunKey second = key();
    second.runIndex = 8;
    std::vector<RunLogRecord> records = {{key(), clean},
                                         {second, crashed}};

    std::vector<std::string> expected = formatRunLog(key(), clean);
    const auto more = formatRunLog(second, crashed);
    expected.insert(expected.end(), more.begin(), more.end());
    EXPECT_EQ(formatCampaignLog(records), expected);
}

TEST(Classifier, DeathOnCorruptLog)
{
    EXPECT_DEATH(
        parseRunLog({"RUN workload=x core=a voltage=1 freq=1 "
                     "campaign=0 run=0"}),
        "not an integer");
}

} // namespace
} // namespace vmargin
