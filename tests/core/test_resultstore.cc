/**
 * @file
 * Round-trip tests for characterization-report persistence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>

#include "core/resultstore.hh"
#include "util/csv.hh"
#include "workloads/spec.hh"

namespace vmargin
{
namespace
{

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
    ASSERT_EQ(loaded.allRuns.size(), report_->allRuns.size());
    for (size_t i = 0; i < loaded.allRuns.size(); ++i) {
        const auto &a = loaded.allRuns[i];
        const auto &b = report_->allRuns[i];
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
    size_t runs_with_sites = 0;
    for (size_t i = 0; i < loaded.allRuns.size(); ++i) {
        EXPECT_EQ(loaded.allRuns[i].correctedBySite,
                  report_->allRuns[i].correctedBySite);
        EXPECT_EQ(loaded.allRuns[i].uncorrectedBySite,
                  report_->allRuns[i].uncorrectedBySite);
        runs_with_sites +=
            loaded.allRuns[i].correctedBySite.total() != 0;
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
        for (auto &run : hostile.allRuns)
            if (run.key.workloadId == "bwaves/ref")
                run.key.workloadId = id;
        const std::string bytes = serializeReport(hostile);
        const auto loaded = deserializeReport(bytes);
        EXPECT_EQ(loaded.allRuns, hostile.allRuns) << id;
        EXPECT_EQ(serializeReport(loaded), bytes) << id;
    }
}

TEST_F(ResultStoreTest, FileRoundTrip)
{
    const std::string path = "/tmp/vmargin_test_report.csv";
    saveReport(*report_, path);
    const auto loaded = loadReport(path);
    EXPECT_EQ(loaded.allRuns.size(), report_->allRuns.size());
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
    appendRunCsv(emitted, {run});
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
    ASSERT_EQ(report.allRuns.size(), 2u);
    EXPECT_EQ(report.allRuns[1].key.core, 3);
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

} // namespace
} // namespace vmargin
