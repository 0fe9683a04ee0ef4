/**
 * @file
 * Round-trip tests for characterization-report persistence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>

#include <sys/wait.h>

#include "core/resultstore.hh"
#include "util/csv.hh"
#include "util/rng.hh"
#include "util/strings.hh"
#include "workloads/spec.hh"

namespace vmargin
{
namespace
{

/** Every run of @p report, block after block. */
std::vector<ClassifiedRun>
flatRuns(const CharacterizationReport &report)
{
    std::vector<ClassifiedRun> runs;
    for (const auto &block : report.runBlocks)
        runs.insert(runs.end(), block.begin(), block.end());
    return runs;
}

class ResultStoreTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        platform_ = new sim::Platform(sim::XGene2Params{},
                                      sim::ChipCorner::TFF, 3);
        CharacterizationFramework framework(platform_);
        FrameworkConfig config;
        config.workloads = {wl::findWorkload("bwaves/ref"),
                            wl::findWorkload("mcf/ref")};
        config.cores = {0, 4};
        config.campaigns = 4;
        config.maxEpochs = 8;
        config.startVoltage = 930;
        config.endVoltage = 840;
        report_ = new CharacterizationReport(
            framework.characterize(config));
    }

    static void
    TearDownTestSuite()
    {
        delete report_;
        delete platform_;
        report_ = nullptr;
        platform_ = nullptr;
    }

    static sim::Platform *platform_;
    static CharacterizationReport *report_;
};

sim::Platform *ResultStoreTest::platform_ = nullptr;
CharacterizationReport *ResultStoreTest::report_ = nullptr;

TEST_F(ResultStoreTest, MetadataSurvives)
{
    const auto loaded =
        deserializeReport(serializeReport(*report_));
    EXPECT_EQ(loaded.chipName, report_->chipName);
    EXPECT_EQ(loaded.corner, report_->corner);
    EXPECT_EQ(loaded.frequency, report_->frequency);
    EXPECT_EQ(loaded.watchdogInterventions,
              report_->watchdogInterventions);
}

TEST_F(ResultStoreTest, RunsSurvive)
{
    const auto loaded =
        deserializeReport(serializeReport(*report_));
    const auto loadedRuns = flatRuns(loaded);
    const auto runs = flatRuns(*report_);
    ASSERT_EQ(loadedRuns.size(), runs.size());
    for (size_t i = 0; i < loadedRuns.size(); ++i) {
        const auto &a = loadedRuns[i];
        const auto &b = runs[i];
        EXPECT_EQ(a.key.workloadId, b.key.workloadId);
        EXPECT_EQ(a.key.voltage, b.key.voltage);
        EXPECT_EQ(a.key.campaign, b.key.campaign);
        EXPECT_EQ(a.effects, b.effects);
        EXPECT_EQ(a.sdcEvents, b.sdcEvents);
        EXPECT_EQ(a.correctedErrors, b.correctedErrors);
        EXPECT_EQ(a.exitCode, b.exitCode);
    }
}

TEST_F(ResultStoreTest, AnalysesRebuildIdentically)
{
    const auto loaded =
        deserializeReport(serializeReport(*report_));
    ASSERT_EQ(loaded.cells.size(), report_->cells.size());
    for (const auto &cell : report_->cells) {
        const auto &rebuilt =
            loaded.cell(cell.workloadId, cell.core);
        EXPECT_EQ(rebuilt.analysis.vmin, cell.analysis.vmin);
        EXPECT_EQ(rebuilt.analysis.highestCrashVoltage,
                  cell.analysis.highestCrashVoltage);
        EXPECT_EQ(rebuilt.analysis.unsafeWidth(),
                  cell.analysis.unsafeWidth());
        for (const auto &[v, sev] :
             cell.analysis.severityByVoltage)
            EXPECT_DOUBLE_EQ(
                rebuilt.analysis.severityByVoltage.at(v), sev);
    }
}

TEST_F(ResultStoreTest, ErrorSitesSurvive)
{
    const auto loaded =
        deserializeReport(serializeReport(*report_));
    const auto loadedRuns = flatRuns(loaded);
    const auto runs = flatRuns(*report_);
    ASSERT_EQ(loadedRuns.size(), runs.size());
    size_t runs_with_sites = 0;
    for (size_t i = 0; i < loadedRuns.size(); ++i) {
        EXPECT_EQ(loadedRuns[i].correctedBySite, runs[i].correctedBySite);
        EXPECT_EQ(loadedRuns[i].uncorrectedBySite,
                  runs[i].uncorrectedBySite);
        runs_with_sites += loadedRuns[i].correctedBySite.total() != 0;
    }
    EXPECT_GT(runs_with_sites, 0u)
        << "the sweep must have produced EDAC location detail";
}

TEST_F(ResultStoreTest, SerializedFormIsStable)
{
    const std::string once = serializeReport(*report_);
    const std::string twice =
        serializeReport(deserializeReport(once));
    EXPECT_EQ(once, twice);

    // Workload ids the emitter must quote: each comes back from the
    // decoder and re-serializes to the same bytes.
    for (const std::string id :
         {"a,b", "say \"hi\"", "line1\nline2", "a\r\nb,c\"d"}) {
        CharacterizationReport hostile = *report_;
        for (auto &block : hostile.runBlocks)
            for (auto &run : block)
                if (run.key.workloadId == "bwaves/ref")
                    run.key.workloadId = id;
        const std::string bytes = serializeReport(hostile);
        const auto loaded = deserializeReport(bytes);
        EXPECT_EQ(loaded.runBlocks, hostile.runBlocks) << id;
        EXPECT_EQ(serializeReport(loaded), bytes) << id;
    }
}

TEST_F(ResultStoreTest, InterleavedCellsLoadAsConsecutiveBlocks)
{
    // A document whose cells interleave: two cells' runs cut into
    // pieces and alternated. Each run of consecutive same-cell rows
    // loads as one block, and the report serializes to the same
    // bytes.
    ASSERT_GE(report_->runBlocks.size(), 2u);
    const auto &a = report_->runBlocks[0];
    const auto &b = report_->runBlocks[1];
    ASSERT_GT(a.size(), 7u);
    ASSERT_GT(b.size(), 3u);
    CharacterizationReport interleaved = *report_;
    interleaved.runBlocks = {{a.begin(), a.begin() + 5},
                             {b.begin(), b.begin() + 3},
                             {a.begin() + 5, a.begin() + 7},
                             {b.begin() + 3, b.end()},
                             {a.begin() + 7, a.end()}};
    const std::string bytes = serializeReport(interleaved);
    const auto loaded = deserializeReport(bytes);
    EXPECT_EQ(loaded.runBlocks, interleaved.runBlocks);
    EXPECT_EQ(serializeReport(loaded), bytes);
    // The analyses are the cells', in first-seen order.
    ASSERT_EQ(loaded.cells.size(), 2u);
    EXPECT_EQ(loaded.cells[0], report_->cells[0]);
    EXPECT_EQ(loaded.cells[1], report_->cells[1]);
}

TEST_F(ResultStoreTest, FileRoundTrip)
{
    const std::string path = "/tmp/vmargin_test_report.csv";
    saveReport(*report_, path);
    const auto loaded = loadReport(path);
    EXPECT_EQ(loaded.runCount(), report_->runCount());
    EXPECT_EQ(loaded.chipName, report_->chipName);
    std::remove(path.c_str());
}

TEST_F(ResultStoreTest, CustomWeightsChangeSeverityOnly)
{
    SeverityWeights heavy;
    heavy.sdc = 100.0;
    const auto loaded =
        deserializeReport(serializeReport(*report_), heavy);
    const auto &base = report_->cell("bwaves/ref", 0).analysis;
    const auto &reweighted =
        loaded.cell("bwaves/ref", 0).analysis;
    EXPECT_EQ(reweighted.vmin, base.vmin);
    // Severity in the unsafe region must now dwarf the original.
    const MilliVolt probe = base.vmin - 10;
    if (base.severityByVoltage.count(probe) &&
        base.severityByVoltage.at(probe) > 0.0) {
        EXPECT_GT(reweighted.severityByVoltage.at(probe),
                  base.severityByVoltage.at(probe));
    }
}

TEST(ResultStore, DeathOnGarbage)
{
    EXPECT_DEATH(deserializeReport("not a report"),
                 "metadata header");
}

using CsvEdit = std::function<void(std::vector<std::string> &header,
                                   std::vector<std::string> &row)>;

/** A two-run report document; @p edit rewrites the CSV header and
 *  the second run row before they are written. */
std::string
twoRunReport(const std::string &metadata, const CsvEdit &edit)
{
    ClassifiedRun run;
    run.key.workloadId = "bwaves/ref";
    std::string emitted;
    appendRunCsv(emitted, {{run}});
    const util::CsvDocument doc = util::parseCsv(emitted);
    std::vector<std::string> header = doc.header;
    std::vector<std::string> first = doc.rows.at(0);
    std::vector<std::string> second = first;
    edit(header, second);

    std::string text = "# vmargin-report " + metadata + "\n";
    util::CsvWriter csv(text);
    for (const auto *row : {&header, &first, &second}) {
        for (const std::string &field : *row)
            csv.field(field);
        csv.endRow();
    }
    return text;
}

/** Set @p column of the run row to @p value. */
CsvEdit
setField(const std::string &column, const std::string &value)
{
    return [=](std::vector<std::string> &header,
               std::vector<std::string> &row) {
        const auto at = std::find(header.begin(), header.end(), column);
        ASSERT_NE(at, header.end()) << column;
        row[static_cast<size_t>(at - header.begin())] = value;
    };
}

constexpr const char *kMetadata = "chip=TTT#1 corner=TTT freq=2400";

TEST(ResultStoreHostile, WellFormedDocumentDecodes)
{
    // The base document of the hostile cases below is itself valid,
    // so each of them dies for the one defect it plants.
    const auto report = deserializeReport(
        twoRunReport(kMetadata, setField("core", "3")));
    // The two rows are different cells: one block each.
    ASSERT_EQ(report.runBlocks.size(), 2u);
    EXPECT_EQ(report.runBlocks[1].at(0).key.core, 3);
    EXPECT_EQ(report.frequency, 2400);
}

TEST(ResultStoreHostile, MissingColumnIsFatal)
{
    const auto drop_ce = [](std::vector<std::string> &header,
                            std::vector<std::string> &row) {
        const auto at = std::find(header.begin(), header.end(), "ce");
        row.erase(row.begin() + (at - header.begin()));
        header.erase(at);
    };
    EXPECT_EXIT((void)deserializeReport(twoRunReport(kMetadata, drop_ce)),
                ::testing::ExitedWithCode(1), "missing column 'ce'");
}

TEST(ResultStoreHostile, ShortRowIsFatal)
{
    const auto truncate = [](std::vector<std::string> &,
                             std::vector<std::string> &row) {
        row.resize(5);
    };
    EXPECT_EXIT(
        (void)deserializeReport(twoRunReport(kMetadata, truncate)),
        ::testing::ExitedWithCode(1),
        "run row 2 has 5 fields, the header has 16");
}

TEST(ResultStoreHostile, NonNumericVoltageIsFatal)
{
    EXPECT_EXIT((void)deserializeReport(twoRunReport(
                    kMetadata, setField("voltage_mv", "abc"))),
                ::testing::ExitedWithCode(1),
                "run row 2, column 'voltage_mv': 'abc' is not an "
                "integer");
}

TEST(ResultStoreHostile, OutOfRangeCoreIsFatal)
{
    // Fits a long, not a CoreId.
    EXPECT_EXIT((void)deserializeReport(twoRunReport(
                    kMetadata, setField("core", "4294967296"))),
                ::testing::ExitedWithCode(1),
                "run row 2, column 'core': '4294967296' is out of "
                "range");
}

TEST(ResultStoreHostile, NonNumericHeaderValueIsFatal)
{
    EXPECT_EXIT((void)deserializeReport(twoRunReport(
                    "chip=TTT#1 corner=TTT freq=abc",
                    [](auto &, auto &) {})),
                ::testing::ExitedWithCode(1),
                "header key 'freq': 'abc' is not an integer");
}

TEST(ResultStoreHostile, UnknownEffectNameIsFatal)
{
    EXPECT_EXIT((void)deserializeReport(twoRunReport(
                    kMetadata, setField("effects", "ZZ"))),
                ::testing::ExitedWithCode(1),
                "run row 2, column 'effects': 'ZZ' is not a list "
                "of effect names");
}

TEST(ResultStoreHostile, MalformedCeSitesIsFatal)
{
    EXPECT_EXIT((void)deserializeReport(twoRunReport(
                    kMetadata, setField("ce_sites", "L2Cache"))),
                ::testing::ExitedWithCode(1),
                "run row 2, column 'ce_sites': 'L2Cache' is not a "
                "site:count list");
    // Well-shaped entries no encoder writes: an unknown site and a
    // repeated one.
    EXPECT_EXIT((void)deserializeReport(twoRunReport(
                    kMetadata, setField("ce_sites", "Bogus:3"))),
                ::testing::ExitedWithCode(1),
                "run row 2, column 'ce_sites': 'Bogus:3' is not a "
                "site:count list");
    EXPECT_EXIT((void)deserializeReport(twoRunReport(
                    kMetadata,
                    setField("ce_sites", "L2Cache:1;L2Cache:2"))),
                ::testing::ExitedWithCode(1),
                "run row 2, column 'ce_sites': 'L2Cache:1;L2Cache:2' "
                "is not a site:count list");
}

TEST(ResultStoreHostile, MalformedUeSitesIsFatal)
{
    EXPECT_EXIT((void)deserializeReport(twoRunReport(
                    kMetadata, setField("ue_sites", "L3Cache:x"))),
                ::testing::ExitedWithCode(1),
                "run row 2, column 'ue_sites': 'L3Cache:x' is not a "
                "site:count list");
    // A zero count: no encoder writes one.
    EXPECT_EXIT((void)deserializeReport(twoRunReport(
                    kMetadata, setField("ue_sites", "L3Cache:0"))),
                ::testing::ExitedWithCode(1),
                "run row 2, column 'ue_sites': 'L3Cache:0' is not a "
                "site:count list");
}

/** A serialized report of two cells, three runs each, with effects,
 *  site lists, a quoted effects field and every metadata counter. */
std::string
twoCellReport()
{
    CharacterizationReport report;
    report.chipName = "TFF#3";
    report.corner = sim::ChipCorner::TFF;
    report.watchdogInterventions = 2;
    report.telemetry.retries = 5;
    for (const auto &[id, core] :
         {std::pair{"bwaves/ref", 0}, std::pair{"mcf/ref", 4}}) {
        auto &block = report.runBlocks.emplace_back();
        for (uint32_t r = 0; r < 3; ++r) {
            ClassifiedRun &run = block.emplace_back();
            run.key = {id, core, 930 - 10 * static_cast<MilliVolt>(r),
                       2400, 0, r};
            run.seconds = 1.25 + r;
            run.avgIpc = 1.5;
            run.activityFactor = 0.75;
            if (r > 0) {
                run.effects.add(Effect::CE);
                run.correctedErrors = r;
                run.correctedBySite[sim::ErrorSite::L2Cache] = r;
            }
            if (r == 2) {
                run.effects.add(Effect::UE);
                run.uncorrectedErrors = 1;
                run.uncorrectedBySite[sim::ErrorSite::Dram] = 1;
            }
        }
    }
    return serializeReport(report);
}

/** A report document damaged @p how: byte flips (to any byte or to a
 *  CSV-special one), a truncation, or a row spliced in, dropped or
 *  swapped. */
std::string
damagedReport(const std::string &report, util::Rng &rng, int how)
{
    std::string text = report;
    const auto anywhere = [&](size_t size) {
        return static_cast<size_t>(
            rng.uniformInt(0, static_cast<int64_t>(size) - 1));
    };
    std::vector<std::string> rows = util::split(report, '\n');
    rows.pop_back(); // the text ends in a newline
    const auto joined = [&] {
        std::string out;
        for (const std::string &row : rows)
            out.append(row).append("\n");
        return out;
    };
    switch (how) {
    case 0:
        for (int64_t n = rng.uniformInt(1, 3); n > 0; --n)
            text[anywhere(text.size())] = static_cast<char>(rng.next());
        return text;
    case 1: {
        static constexpr std::string_view kSpecial = ",\"\n-.e:=0 9";
        text[anywhere(text.size())] = kSpecial[anywhere(kSpecial.size())];
        return text;
    }
    case 2:
        return text.substr(0, anywhere(text.size()));
    case 3: {
        const std::string row = rows[anywhere(rows.size())];
        rows.insert(rows.begin() + static_cast<long>(anywhere(rows.size())),
                    row);
        return joined();
    }
    case 4:
        rows.erase(rows.begin() + static_cast<long>(anywhere(rows.size())));
        return joined();
    default:
        std::swap(rows[anywhere(rows.size())], rows[anywhere(rows.size())]);
        return joined();
    }
}

TEST(ResultStoreHostile, DamagedReportsDecodeOrFailByName)
{
    // Seeded byte flips, truncations and row splices of a serialized
    // two-cell report, each decoded in a child process. The child
    // either decodes (exit 0) or stops with a fatal error (exit 1,
    // "fatal: " naming the value); a panic aborts, and a sanitizer
    // report prints neither line, so either fails the case.
    const std::string report = twoCellReport();
    ASSERT_EQ(deserializeReport(report).cells.size(), 2u);
    util::Rng rng(1);
    for (int i = 0; i < 64; ++i) {
        const std::string input = damagedReport(report, rng, i % 6);
        SCOPED_TRACE("input " + std::to_string(i) + ":\n" + input);
        EXPECT_EXIT(
            {
                (void)deserializeReport(input);
                std::cerr << "decoded" << std::endl;
                std::exit(0);
            },
            [](int status) {
                return WIFEXITED(status) && WEXITSTATUS(status) <= 1;
            },
            "fatal: |decoded");
    }
}

// ---- the run-row writer against a field-by-field reference -------

/** std::to_chars in fixed notation: the bytes every double field
 *  must carry, whichever path printed it. */
std::string
fixedText(double value, int precision)
{
    char text[512];
    const auto result = std::to_chars(text, text + sizeof(text), value,
                                      std::chars_format::fixed,
                                      precision);
    return std::string(text, result.ptr);
}

/** A site list spelled from kSiteNames: "site:count" entries in name
 *  order, zero counts left out, joined by ';'. */
std::string
siteText(const sim::SiteCounts &sites)
{
    std::string text;
    for (const auto &[site, name] : sim::kSiteNames) {
        if (!sites[site])
            continue;
        if (!text.empty())
            text += ';';
        text.append(name).append(":").append(
            std::to_string(sites[site]));
    }
    return text;
}

/** The run CSV written field by field through CsvWriter, every
 *  number and list formatted on its own: the reference appendRunCsv
 *  must match byte for byte. */
std::string
referenceRunCsv(const std::vector<ClassifiedRun> &runs)
{
    std::string out;
    appendRunCsv(out, {}); // the column header
    util::CsvWriter csv(out);
    for (const ClassifiedRun &run : runs)
        csv.field(run.key.workloadId)
            .field(run.key.core)
            .field(run.key.voltage)
            .field(run.key.frequency)
            .field(run.key.campaign)
            .field(run.key.runIndex)
            .field(run.effects.toString())
            .field(run.sdcEvents)
            .field(run.correctedErrors)
            .field(run.uncorrectedErrors)
            .field(run.exitCode)
            .field(fixedText(run.seconds, 6))
            .field(fixedText(run.avgIpc, 4))
            .field(fixedText(run.activityFactor, 4))
            .field(siteText(run.correctedBySite))
            .field(siteText(run.uncorrectedBySite))
            .endRow();
    return out;
}

/** appendRunCsv's bytes for @p runs as one block, after a prefix
 *  already in the buffer (the prefix is checked to survive
 *  untouched). Each row prints its own run's key, so the same runs
 *  as one block per run must give the same bytes. */
std::string
emittedRunCsv(const std::vector<ClassifiedRun> &runs)
{
    const std::string prefix = "prefix\n";
    std::string out = prefix;
    appendRunCsv(out, {runs});
    EXPECT_EQ(out.compare(0, prefix.size(), prefix), 0);
    std::vector<std::vector<ClassifiedRun>> blocks;
    for (const ClassifiedRun &run : runs)
        blocks.push_back({run});
    std::string split = prefix;
    appendRunCsv(split, blocks);
    EXPECT_EQ(split, out);
    return out.substr(prefix.size());
}

/** The effect set with bit i of @p mask naming kAllEffects[i + 1]. */
EffectSet
effectsOf(size_t mask)
{
    EffectSet set;
    for (size_t bit = 0; bit + 1 < std::size(kAllEffects); ++bit)
        if (mask >> bit & 1)
            set.add(kAllEffects[bit + 1]);
    return set;
}

/** The site counts with site i of @p mask at @p count. */
sim::SiteCounts
sitesOf(size_t mask, uint64_t count)
{
    sim::SiteCounts sites;
    for (size_t site = 0; site < sim::kErrorSites; ++site)
        if (mask >> site & 1)
            sites.bySite[site] = count;
    return sites;
}

ClassifiedRun
plainRun(const std::string &id)
{
    ClassifiedRun run;
    run.key.workloadId = id;
    run.key.core = 3;
    run.key.voltage = 905;
    run.seconds = 1.25;
    run.avgIpc = 0.5;
    run.activityFactor = 0.375;
    return run;
}

TEST(RunCsvWriter, MatchesReferenceOnEveryEffectSet)
{
    std::vector<ClassifiedRun> runs;
    for (size_t mask = 0; mask < kEffectSets; ++mask) {
        runs.push_back(plainRun("bwaves/ref"));
        runs.back().effects = effectsOf(mask);
    }
    const std::string emitted = emittedRunCsv(runs);
    EXPECT_EQ(emitted, referenceRunCsv(runs));
    // A set holding the separator is quoted.
    EXPECT_NE(emitted.find(",\"CE,UE\","), std::string::npos);
    EXPECT_NE(emitted.find(",NO,"), std::string::npos);
}

TEST(RunCsvWriter, MatchesReferenceOnEverySiteSubset)
{
    std::vector<ClassifiedRun> runs;
    for (const uint64_t count : {uint64_t{1}, UINT64_MAX})
        for (size_t ce = 0; ce < (size_t{1} << sim::kErrorSites); ++ce)
            for (size_t ue = 0; ue < (size_t{1} << sim::kErrorSites);
                 ++ue) {
                runs.push_back(plainRun("mcf/ref"));
                runs.back().correctedBySite = sitesOf(ce, count);
                runs.back().uncorrectedBySite = sitesOf(ue, count);
                runs.back().correctedErrors = count;
            }
    EXPECT_EQ(emittedRunCsv(runs), referenceRunCsv(runs));
}

TEST(RunCsvWriter, MatchesReferenceOnEdgeNumbers)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<double> doubles = {
        0.0, 1.25, 0.123456, 0.1234, 2.5e-5, 1234.5678, // on-grid
        0.1234567, 1.0 / 3.0, 1e-9, 123456.7891234,     // off-grid
        -0.0, -1.25, -0.1234567, nan, -nan, inf, -inf, 1e300,
        1e15, 1e16, DBL_MAX, -DBL_MAX, DBL_MIN,
        std::numeric_limits<double>::denorm_min()};
    std::vector<ClassifiedRun> runs;
    for (const double value : doubles) {
        runs.push_back(plainRun("lbm/ref"));
        runs.back().seconds = value;
        runs.back().avgIpc = value;
        runs.back().activityFactor = value;
    }
    for (const int code : {INT_MIN, INT_MIN + 1, -1, 0, 139, INT_MAX}) {
        runs.push_back(plainRun("lbm/ref"));
        runs.back().exitCode = code;
    }
    // Every integer column at its extremes, every double at its
    // widest: the longest row the writer can be handed.
    ClassifiedRun widest = plainRun("lbm/ref");
    widest.key.core = INT32_MIN;
    widest.key.voltage = INT32_MIN;
    widest.key.frequency = INT32_MIN;
    widest.key.campaign = UINT32_MAX;
    widest.key.runIndex = UINT32_MAX;
    widest.effects = effectsOf(kEffectSets - 1);
    widest.sdcEvents = widest.correctedErrors =
        widest.uncorrectedErrors = UINT64_MAX;
    widest.exitCode = INT_MIN;
    widest.seconds = widest.avgIpc = widest.activityFactor = -DBL_MAX;
    widest.correctedBySite = widest.uncorrectedBySite =
        sitesOf((size_t{1} << sim::kErrorSites) - 1, UINT64_MAX);
    runs.push_back(widest);
    runs.push_back(widest);
    runs.back().key.workloadId = std::string(5000, ',');
    EXPECT_EQ(emittedRunCsv(runs), referenceRunCsv(runs));
}

TEST(RunCsvWriter, MatchesReferenceOnHostileIdsAndIdSwitches)
{
    const std::vector<std::string> ids = {
        "",
        ",",
        "\"",
        "\r",
        "\n",
        "a,b",
        "say \"hi\"",
        "a\r\nb,c\"d",
        "bwaves/ref",
        std::string(10000, 'x'),
        std::string(10000, '"'),
        std::string(4000, 'y') + ",",
        "mcf/ref"};
    // Each id alone, in runs of equal ids, and alternating with its
    // neighbours, so every switch between short, long, quoted and
    // plain ids is a row boundary.
    std::vector<ClassifiedRun> runs;
    for (size_t i = 0; i < ids.size(); ++i) {
        for (int repeat = 0; repeat < 3; ++repeat) {
            runs.push_back(plainRun(ids[i]));
            runs.back().key.runIndex = static_cast<uint32_t>(repeat);
        }
        runs.push_back(plainRun(ids[(i + 1) % ids.size()]));
        runs.push_back(plainRun(ids[i]));
    }
    const std::string emitted = emittedRunCsv(runs);
    EXPECT_EQ(emitted, referenceRunCsv(runs));
    // The quoting rule itself, spelled out.
    const std::string header = referenceRunCsv({});
    EXPECT_EQ(emittedRunCsv({plainRun("a,\"b\"")}).substr(header.size()),
              "\"a,\"\"b\"\"\",3,905,2400,0,0,NO,0,0,0,0,1.250000,"
              "0.5000,0.3750,,\n");
    // An empty id stays an empty first field.
    EXPECT_EQ(emittedRunCsv({plainRun("")}).substr(header.size()),
              ",3,905,2400,0,0,NO,0,0,0,0,1.250000,0.5000,0.3750,,\n");
}

TEST(RunCsvWriter, MatchesReferenceOnSeededRandomRuns)
{
    const std::vector<std::string> ids = {"bwaves/ref", "mcf/ref",
                                          "a,b", "q\"q", "", "lbm/ref"};
    util::Rng rng(25);
    const auto count = [&] {
        // Mostly small counts, now and then one of any width.
        return rng.uniform() < 0.8 ? rng.next() % 100 : rng.next();
    };
    const auto value = [&](int precision) {
        switch (rng.uniformInt(0, 3)) {
          case 0: // on the precision's grid, as quantized runs are
            return std::round(rng.uniform(0.0, 1e4) *
                              std::pow(10.0, precision)) /
                   std::pow(10.0, precision);
          case 1:
            return rng.uniform(-1e6, 1e6);
          case 2:
            return std::bit_cast<double>(rng.next());
          default:
            return rng.uniform(0.0, 3.0);
        }
    };
    std::vector<ClassifiedRun> runs;
    for (int i = 0; i < 20000; ++i) {
        ClassifiedRun run;
        run.key.workloadId =
            ids[static_cast<size_t>(rng.uniformInt(0, 5))];
        run.key.core = static_cast<CoreId>(rng.next());
        run.key.voltage = static_cast<MilliVolt>(rng.uniformInt(0, 1000));
        run.key.frequency = static_cast<MegaHertz>(rng.next());
        run.key.campaign = static_cast<uint32_t>(rng.next());
        run.key.runIndex = static_cast<uint32_t>(rng.uniformInt(0, 9));
        run.effects = effectsOf(rng.next() % kEffectSets);
        run.sdcEvents = count();
        run.correctedErrors = count();
        run.uncorrectedErrors = count();
        run.exitCode = static_cast<int>(rng.next());
        run.seconds = value(6);
        run.avgIpc = value(4);
        run.activityFactor = value(4);
        for (auto *sites : {&run.correctedBySite, &run.uncorrectedBySite})
            for (auto &site : sites->bySite)
                site = rng.uniform() < 0.3 ? count() : 0;
        runs.push_back(run);
    }
    EXPECT_EQ(emittedRunCsv(runs), referenceRunCsv(runs));
}

} // namespace
} // namespace vmargin
