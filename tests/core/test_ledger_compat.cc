/**
 * @file
 * Ledger version compatibility across the chip-dimension bump
 * (version 1 -> 2): legacy files replay onto the implicit chip,
 * appends to a legacy file stay self-consistently version 1, the
 * chip key keeps identical (workload, core) cells of different
 * chips apart in one file, and torn tails of chip-dimensioned
 * frames are discarded exactly like version-1 tails.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/ledger.hh"
#include "ledger_files.hh"

namespace vmargin
{
namespace
{

using ledger_files::encoded;

RunRecord
makeRun(const std::string &workload, CoreId core, MilliVolt voltage,
        uint32_t run_index = 0)
{
    RunRecord run;
    run.key.workloadId = workload;
    run.key.core = core;
    run.key.voltage = voltage;
    run.key.frequency = 2400;
    run.key.runIndex = run_index;
    run.seconds = 1.5;
    run.avgIpc = 1.25;
    return run;
}

CellMeasurement
makeCell(const std::string &workload, CoreId core,
         ChipRef chip = {})
{
    CellMeasurement cell;
    cell.chip = chip;
    cell.workloadId = workload;
    cell.core = core;
    cell.runs = {makeRun(workload, core, 930, 0),
                 makeRun(workload, core, 925, 1)};
    cell.telemetry.retries = 4;
    return cell;
}

/** Header frame payload: u32 version + length-prefixed header. */
void
appendHeaderFrame(std::string &bytes, uint32_t version,
                  const std::string &header)
{
    std::string payload;
    for (int shift = 0; shift < 32; shift += 8)
        payload.push_back(
            static_cast<char>((version >> shift) & 0xffu));
    const uint32_t len = static_cast<uint32_t>(header.size());
    for (int shift = 0; shift < 32; shift += 8)
        payload.push_back(static_cast<char>((len >> shift) & 0xffu));
    payload += header;
    appendFrame(bytes, payload);
}

/**
 * Craft a file exactly as a version-1 (pre-chip) build wrote it:
 * magic, version-1 header frame, then each cell's run frames closed
 * by a version-1 (chipless) commit frame.
 */
void
writeV1File(const std::string &path, const std::string &header,
            const std::vector<CellMeasurement> &cells)
{
    std::string bytes(kLedgerMagic, 4);
    appendHeaderFrame(bytes, 1, header);
    for (const auto &cell : cells) {
        for (const auto &run : cell.runs)
            appendFrame(bytes, encoded(encodeRunRecordInto, run));
        CellCommit commit;
        commit.configHash = 0;
        commit.workloadId = cell.workloadId;
        commit.core = cell.core;
        commit.runCount = static_cast<uint32_t>(cell.runs.size());
        commit.telemetry = cell.telemetry;
        std::string payload;
        encodeCellCommitInto(payload, commit, 1);
        appendFrame(bytes, payload);
    }
    std::ofstream out(path, std::ios::binary);
    out << bytes;
}

TEST(LedgerCompat, V1FileReplaysOntoImplicitChip)
{
    const std::string path = "/tmp/vmargin_test_compat_v1";
    std::remove(path.c_str());
    writeV1File(path, "compat-h",
                {makeCell("bwaves/ref", 2), makeCell("mcf/ref", 5)});

    const ChipRef implicit{sim::ChipCorner::TFF, 7};
    RunLedger ledger(path, "test");
    ledger.open("compat-h", "", implicit);
    EXPECT_EQ(ledger.fileVersion(), 1u);
    ASSERT_EQ(ledger.size(), 2u);

    // Legacy cells land on the implicit chip, not the default key.
    const CellMeasurement *found =
        ledger.find(0, implicit, "bwaves/ref", 2);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->chip, implicit);
    EXPECT_EQ(found->runs.size(), 2u);
    EXPECT_EQ(found->telemetry.retries, 4u);
    EXPECT_EQ(ledger.find(0, ChipRef{}, "bwaves/ref", 2), nullptr);
    std::remove(path.c_str());
}

TEST(LedgerCompat, V1FileAppendsStayVersion1AcrossReopen)
{
    const std::string path = "/tmp/vmargin_test_compat_v1a";
    std::remove(path.c_str());
    writeV1File(path, "compat-h", {makeCell("bwaves/ref", 2)});

    const ChipRef implicit{sim::ChipCorner::TSS, 3};
    {
        RunLedger ledger(path, "test");
        ledger.open("compat-h", "", implicit);
        ledger.append(0, makeCell("mcf/ref", 5, implicit));
    }
    // The appended commit was encoded at the file's version (1), so
    // a reopen replays it onto the implicit chip like the rest.
    RunLedger reopened(path, "test");
    reopened.open("compat-h", "", implicit);
    EXPECT_EQ(reopened.fileVersion(), 1u);
    ASSERT_EQ(reopened.size(), 2u);
    const CellMeasurement *appended =
        reopened.find(0, implicit, "mcf/ref", 5);
    ASSERT_NE(appended, nullptr);
    EXPECT_EQ(appended->chip, implicit);
    std::remove(path.c_str());
}

TEST(LedgerCompat, FreshFilesAreCurrentVersion)
{
    const std::string path = "/tmp/vmargin_test_compat_fresh";
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "test");
        ledger.open("fresh-h");
        EXPECT_EQ(ledger.fileVersion(), kLedgerVersion);
    }
    RunLedger reopened(path, "test");
    reopened.open("fresh-h");
    EXPECT_EQ(reopened.fileVersion(), kLedgerVersion);
    std::remove(path.c_str());
}

TEST(LedgerCompat, ChipKeyKeepsIdenticalCellsApart)
{
    const std::string path = "/tmp/vmargin_test_compat_chips";
    std::remove(path.c_str());
    const ChipRef ttt{sim::ChipCorner::TTT, 1};
    const ChipRef tff{sim::ChipCorner::TFF, 2};
    {
        RunLedger ledger(path, "test");
        ledger.open("fleet-h");
        // The same (workload, core) coordinates on two chips: one
        // shared file must keep both.
        ledger.append(0, makeCell("bwaves/ref", 2, ttt));
        ledger.append(0, makeCell("bwaves/ref", 2, tff));
        EXPECT_EQ(ledger.size(), 2u);
    }
    RunLedger reopened(path, "test");
    reopened.open("fleet-h");
    ASSERT_EQ(reopened.size(), 2u);
    const CellMeasurement *on_ttt =
        reopened.find(0, ttt, "bwaves/ref", 2);
    const CellMeasurement *on_tff =
        reopened.find(0, tff, "bwaves/ref", 2);
    ASSERT_NE(on_ttt, nullptr);
    ASSERT_NE(on_tff, nullptr);
    EXPECT_EQ(on_ttt->chip, ttt);
    EXPECT_EQ(on_tff->chip, tff);
    EXPECT_EQ(reopened.find(0, ChipRef{sim::ChipCorner::TSS, 9},
                            "bwaves/ref", 2),
              nullptr);
    std::remove(path.c_str());
}

TEST(LedgerCompat, TornChipFrameTailIsDiscarded)
{
    const std::string path = "/tmp/vmargin_test_compat_torn";
    std::remove(path.c_str());
    const ChipRef ttt{sim::ChipCorner::TTT, 1};
    const ChipRef tff{sim::ChipCorner::TFF, 2};
    {
        RunLedger ledger(path, "test");
        ledger.open("fleet-h");
        ledger.append(0, makeCell("bwaves/ref", 2, ttt));
        ledger.append(0, makeCell("mcf/ref", 5, tff));
    }
    {
        // Chop into the second cell's commit frame — the tail a
        // killed fleet sweep leaves behind.
        const auto size = std::filesystem::file_size(path);
        std::filesystem::resize_file(path, size - 5);
    }
    RunLedger reopened(path, "test");
    reopened.open("fleet-h");
    ASSERT_EQ(reopened.size(), 1u);
    EXPECT_NE(reopened.find(0, ttt, "bwaves/ref", 2), nullptr);
    EXPECT_EQ(reopened.find(0, tff, "mcf/ref", 5), nullptr);
    std::remove(path.c_str());
}

TEST(LedgerCompatDeath, RefusesVersionZero)
{
    const std::string path = "/tmp/vmargin_test_compat_v0";
    std::remove(path.c_str());
    {
        std::string bytes(kLedgerMagic, 4);
        appendHeaderFrame(bytes, 0, "h");
        std::ofstream out(path, std::ios::binary);
        out << bytes;
    }
    RunLedger ledger(path, "test");
    EXPECT_EXIT(ledger.open("h"), ::testing::ExitedWithCode(1),
                "refusing to mix versions");
    std::remove(path.c_str());
}

} // namespace
} // namespace vmargin
