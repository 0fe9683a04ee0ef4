/**
 * @file
 * RunLedger framing and recovery semantics: record round-trips,
 * truncated tails, checksum corruption (skip-and-warn, poisoned
 * commits), empty ledgers, version mismatches, and the LedgerView
 * derived-view aggregator.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/ledger.hh"
#include "obs/metrics.hh"
#include "util/rng.hh"

namespace vmargin
{
namespace
{

RunRecord
makeRun(const std::string &workload, CoreId core, MilliVolt voltage,
        uint32_t run_index = 0, bool crash = false)
{
    RunRecord run;
    run.key.workloadId = workload;
    run.key.core = core;
    run.key.voltage = voltage;
    run.key.frequency = 2400;
    run.key.campaign = 0;
    run.key.runIndex = run_index;
    if (crash) {
        run.effects.add(Effect::SC);
        run.exitCode = 139;
    }
    run.seconds = 1.25 + 0.001 * voltage;
    run.avgIpc = 1.618033988749895;
    run.activityFactor = 0.5772156649015329;
    run.correctedBySite[sim::ErrorSite::L2Cache] = 3;
    return run;
}

CellMeasurement
makeCell(const std::string &workload, CoreId core)
{
    CellMeasurement cell;
    cell.workloadId = workload;
    cell.core = core;
    cell.runs = {makeRun(workload, core, 930, 0),
                 makeRun(workload, core, 925, 1),
                 makeRun(workload, core, 920, 2, true)};
    cell.watchdogInterventions = 2;
    cell.telemetry.retries = 5;
    cell.telemetry.lostMeasurements = 1;
    return cell;
}

/** Current value of an exact ledger counter; tests read deltas. */
uint64_t
counterValue(const char *name)
{
    return obs::Registry::global().counter(name).value();
}

/** Append each payload to @p path as a frame with a valid checksum,
 *  so hostile payloads get past the checksum to the decoder. */
void
appendRawFrames(const std::string &path,
                const std::vector<std::string> &payloads)
{
    std::string bytes;
    for (const auto &payload : payloads)
        appendFrame(bytes, payload);
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << bytes;
}

TEST(LedgerCodec, RunRecordRoundTripsBitExact)
{
    const std::string path = "/tmp/vmargin_test_ledger_codec_run";
    std::remove(path.c_str());
    RunRecord run = makeRun("bwaves/ref", 3, 905, 7, true);
    run.key.campaign = 2;
    run.effects.add(Effect::SDC);
    run.effects.add(Effect::CE);
    run.sdcEvents = 4;
    run.correctedErrors = 9;
    run.uncorrectedErrors = 1;
    run.uncorrectedBySite[sim::ErrorSite::L3Cache] = 1;
    CellMeasurement cell;
    cell.workloadId = run.key.workloadId;
    cell.core = run.key.core;
    cell.runs = {run};
    {
        RunLedger ledger(path, "test");
        ledger.open("h");
        ledger.append(1, cell);
    }
    RunLedger reopened(path, "test");
    reopened.open("h");
    ASSERT_EQ(reopened.size(), 1u);
    ASSERT_EQ(reopened.entries()[0].cell.runs.size(), 1u);
    const RunRecord &got = reopened.entries()[0].cell.runs[0];
    EXPECT_EQ(got.key.workloadId, run.key.workloadId);
    EXPECT_EQ(got.key.core, run.key.core);
    EXPECT_EQ(got.key.voltage, run.key.voltage);
    EXPECT_EQ(got.key.frequency, run.key.frequency);
    EXPECT_EQ(got.key.campaign, run.key.campaign);
    EXPECT_EQ(got.key.runIndex, run.key.runIndex);
    EXPECT_EQ(got.effects, run.effects);
    EXPECT_EQ(got.sdcEvents, run.sdcEvents);
    EXPECT_EQ(got.correctedErrors, run.correctedErrors);
    EXPECT_EQ(got.uncorrectedErrors, run.uncorrectedErrors);
    EXPECT_EQ(got.exitCode, run.exitCode);
    // Bit-exact double round-trip is what makes replayed reports
    // byte-identical to fresh ones.
    EXPECT_EQ(got.seconds, run.seconds);
    EXPECT_EQ(got.avgIpc, run.avgIpc);
    EXPECT_EQ(got.activityFactor, run.activityFactor);
    EXPECT_EQ(got.correctedBySite, run.correctedBySite);
    EXPECT_EQ(got.uncorrectedBySite, run.uncorrectedBySite);
    std::remove(path.c_str());
}

TEST(LedgerCodec, CommitRoundTrips)
{
    const std::string path = "/tmp/vmargin_test_ledger_codec_commit";
    std::remove(path.c_str());
    CellMeasurement cell = makeCell("leslie3d/ref", 5);
    cell.chip = ChipRef{sim::ChipCorner::TSS, 9};
    cell.watchdogInterventions = 3;
    cell.telemetry.retries = 11;
    cell.telemetry.backoffEvents = 6;
    cell.telemetry.backoffUsTotal = 12345;
    cell.telemetry.watchdogRetries = 2;
    cell.telemetry.lostMeasurements = 1;
    const Seed config_hash = 0xdeadbeefcafef00dull;
    {
        RunLedger ledger(path, "test");
        ledger.open("h");
        ledger.append(config_hash, cell);
    }
    RunLedger reopened(path, "test");
    reopened.open("h");
    ASSERT_EQ(reopened.size(), 1u);
    EXPECT_EQ(reopened.entries()[0].configHash, config_hash);
    const CellMeasurement *got =
        reopened.find(config_hash, cell.chip, "leslie3d/ref", 5);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->chip, cell.chip);
    EXPECT_EQ(got->workloadId, cell.workloadId);
    EXPECT_EQ(got->core, cell.core);
    EXPECT_EQ(got->runs.size(), cell.runs.size());
    EXPECT_EQ(got->watchdogInterventions, 3u);
    EXPECT_EQ(got->telemetry.retries, 11u);
    EXPECT_EQ(got->telemetry.backoffEvents, 6u);
    EXPECT_EQ(got->telemetry.backoffUsTotal, 12345u);
    EXPECT_EQ(got->telemetry.watchdogRetries, 2u);
    EXPECT_EQ(got->telemetry.lostMeasurements, 1u);
    std::remove(path.c_str());
}

TEST(LedgerCodec, RejectsUnknownKindAndShortPayloads)
{
    const std::string path = "/tmp/vmargin_test_ledger_codec_reject";
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "test");
        ledger.open("h");
    }
    // Each hostile frame carries a valid checksum, so it reaches the
    // decoder: an empty payload, an unknown kind byte, and a run
    // record cut in half. Each is skipped as malformed, and the
    // commit after them is refused because its cell lost records.
    const std::string run = encodeRunRecord(makeRun("x", 0, 900));
    CellCommit commit;
    commit.workloadId = "x";
    commit.runCount = 1;
    appendRawFrames(path, {"", "\x07junk", run.substr(0, run.size() / 2),
                           run, encodeCellCommit(commit)});

    const uint64_t skipped_before = counterValue("ledger.replay_skipped");
    RunLedger reopened(path, "test");
    reopened.open("h");
    EXPECT_EQ(counterValue("ledger.replay_skipped") - skipped_before, 3u);
    EXPECT_EQ(reopened.size(), 0u);
    std::remove(path.c_str());
}

TEST(RunLedger, UnknownEffectNameIsSkippedNotFatal)
{
    // A run frame whose checksum is valid but which carries a value
    // no encoder writes (one field patched, checksum recomputed) is
    // a malformed record: skipped, counted, and its cell refused.
    // The next cell still loads. The cases: an effects field naming
    // no effect ("NO" patched to "ZZ"), and a site list with an
    // unknown site, a repeated site or a zero count.
    const auto patched = [](const std::string &from,
                            const std::string &to) {
        RunRecord run = makeRun("bwaves/ref", 0, 930);
        run.correctedBySite[sim::ErrorSite::L3Cache] = 1;
        std::string payload = encodeRunRecord(run);
        const size_t at = payload.find(from);
        EXPECT_NE(at, std::string::npos) << "no field to patch";
        if (at != std::string::npos)
            payload.replace(at, from.size(), to);
        return payload;
    };
    const std::string length_2("\x02\x00\x00\x00", 4);
    const std::string count_3("\x03\x00\x00\x00\x00\x00\x00\x00", 8);
    const std::string count_0(8, '\0');
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"unknown effect name",
         patched(length_2 + "NO", length_2 + "ZZ")},
        {"unknown site name", patched("L3Cache", "L9Cache")},
        {"repeated site name", patched("L3Cache", "L2Cache")},
        {"zero site count",
         patched("L2Cache" + count_3, "L2Cache" + count_0)},
    };

    const std::string path = "/tmp/vmargin_test_ledger_bad_effect";
    for (const auto &[what, run] : cases) {
        SCOPED_TRACE(what);
        std::remove(path.c_str());
        {
            RunLedger ledger(path, "test");
            ledger.open("h");
        }
        CellCommit commit;
        commit.workloadId = "bwaves/ref";
        commit.runCount = 1;
        appendRawFrames(path, {run, encodeCellCommit(commit)});

        const uint64_t skipped_before =
            counterValue("ledger.replay_skipped");
        {
            RunLedger reopened(path, "test");
            reopened.open("h");
            EXPECT_EQ(counterValue("ledger.replay_skipped") -
                          skipped_before,
                      1u);
            EXPECT_EQ(reopened.size(), 0u)
                << "the cell must be refused";
            reopened.append(1, makeCell("leslie3d/ref", 1));
        }
        RunLedger again(path, "test");
        again.open("h");
        EXPECT_EQ(again.size(), 1u);
        EXPECT_NE(again.find(1, ChipRef{}, "leslie3d/ref", 1), nullptr);
    }
    std::remove(path.c_str());
}

TEST(LedgerCodec, ChecksumLanesMatchOneByOne)
{
    EXPECT_EQ(ledgerChecksum(""), 2166136261u); // FNV-1a 32 basis
    EXPECT_EQ(ledgerChecksum("a"), 0xe40c292cu);

    // Payloads of mixed lengths, empty and equal ones among them, so
    // every lane stops at a different byte; every count from none
    // through three full lane groups plus a remainder.
    util::Rng rng(5);
    std::vector<std::string> texts = {"", "", "abc", "abc"};
    while (texts.size() < 3 * kLedgerChecksumLanes + 3) {
        std::string text(static_cast<size_t>(rng.uniformInt(0, 300)),
                         '\0');
        for (char &c : text)
            c = static_cast<char>(rng.uniformInt(0, 255));
        texts.push_back(std::move(text));
    }
    for (size_t count = 0; count <= texts.size(); ++count) {
        const std::vector<std::string_view> payloads(
            texts.begin(), texts.begin() + static_cast<long>(count));
        std::vector<uint32_t> sums(count, 0);
        ledgerChecksums(payloads, sums);
        for (size_t i = 0; i < count; ++i)
            EXPECT_EQ(sums[i], ledgerChecksum(payloads[i]))
                << "payload " << i << " of " << count;
    }
}

/** A cell of @p runs run records, all on core 0. */
CellMeasurement
cellOfRuns(const std::string &workload, size_t runs)
{
    CellMeasurement cell;
    cell.workloadId = workload;
    for (size_t i = 0; i < runs; ++i)
        cell.runs.push_back(makeRun(workload, 0,
                                    930 - 5 * static_cast<MilliVolt>(i),
                                    static_cast<uint32_t>(i)));
    return cell;
}

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

/** Payload start offsets and end offsets of every frame of a
 *  ledger file's bytes. */
std::pair<std::vector<size_t>, std::vector<size_t>>
frameSpans(const std::string &bytes)
{
    std::vector<size_t> starts;
    std::vector<size_t> ends;
    FrameCursor cursor(bytes, 4);
    std::string_view payload;
    uint32_t checksum = 0;
    while (cursor.next(payload, checksum) == FrameCursor::Status::Frame) {
        starts.push_back(static_cast<size_t>(payload.data() -
                                             bytes.data()));
        ends.push_back(cursor.offset());
    }
    return {starts, ends};
}

TEST(RunLedger, LaneVerifiedReplayMatchesFrameByFrame)
{
    // Replay checks frame checksums kLedgerChecksumLanes at a time.
    // Corrupting one payload byte of any single record frame, at
    // every position in a lane group and in the frames after the
    // last full group, must give what a frame-by-frame check gives:
    // one skipped frame; a corrupt run or commit frame refuses its
    // own cell and no other (a lost frame drops the pending runs, so
    // the next cell starts clean); the file is cut back only when
    // the dangling frames end it.
    const std::string path = "/tmp/vmargin_test_ledger_lanes";
    const std::vector<size_t> runs_per_cell = {3, 1, 2, 4, 3, 2};
    const auto name = [](size_t cell) {
        return "cell" + std::to_string(cell) + "/ref";
    };
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "test");
        ledger.open("h");
        for (size_t c = 0; c < runs_per_cell.size(); ++c)
            ledger.append(1, cellOfRuns(name(c), runs_per_cell[c]));
    }
    const std::string pristine = readBytes(path);

    // Each frame's payload span and owning cell (-1: the header).
    const auto [starts, ends] = frameSpans(pristine);
    std::vector<int> owner = {-1};
    for (size_t c = 0; c < runs_per_cell.size(); ++c)
        for (size_t f = 0; f <= runs_per_cell[c]; ++f)
            owner.push_back(static_cast<int>(c));
    const size_t frames = ends.size();
    ASSERT_EQ(frames, owner.size());
    ASSERT_GE(frames, 2 * kLedgerChecksumLanes);
    ASSERT_GE(frames % kLedgerChecksumLanes, 2u)
        << "the journal must end in a partial lane group";

    for (size_t f = 1; f < frames; ++f) {
        SCOPED_TRACE("frame " + std::to_string(f) + ", lane " +
                     std::to_string(f % kLedgerChecksumLanes) +
                     (f >= frames - frames % kLedgerChecksumLanes
                          ? ", after the last full group"
                          : ""));
        std::string bytes = pristine;
        bytes[(starts[f] + ends[f]) / 2] ^= 0x5a;
        writeBytes(path, bytes);

        const uint64_t skipped0 = counterValue("ledger.replay_skipped");
        RunLedger ledger(path, "test");
        ledger.open("h");
        EXPECT_EQ(counterValue("ledger.replay_skipped") - skipped0, 1u);
        const auto cell = static_cast<size_t>(owner[f]);
        size_t refused = 0;
        for (size_t c = 0; c < runs_per_cell.size(); ++c) {
            const bool expect_refused = c == cell;
            refused += expect_refused;
            EXPECT_EQ(ledger.find(1, ChipRef{}, name(c), 0) == nullptr,
                      expect_refused)
                << "cell " << c;
        }
        EXPECT_EQ(ledger.size(), runs_per_cell.size() - refused);
        // The committed prefix: all of it, unless the corrupt frame
        // is the last commit; then the last cell's run frames dangle
        // after the previous commit and are cut.
        const size_t prefix =
            f + 1 == frames ? ends[f - runs_per_cell.back() - 1]
                            : pristine.size();
        EXPECT_EQ(std::filesystem::file_size(path), prefix);
    }
    std::remove(path.c_str());
}

TEST(RunLedger, CorruptLastCommitRefusesOnlyItsCell)
{
    // Cells of 2, 3 and 2 runs. Losing the last commit frame leaves
    // the last cell's runs dangling after the previous commit: that
    // cell alone is refused, the file is cut back to the previous
    // commit, and re-appending the cell makes the ledger whole.
    // Losing the middle commit as well refuses the middle cell too
    // (and only it) and cuts the file back to the first commit.
    const std::string path = "/tmp/vmargin_test_ledger_last_commit";
    const std::vector<size_t> runs_per_cell = {2, 3, 2};
    const auto name = [](size_t cell) {
        return "cell" + std::to_string(cell) + "/ref";
    };
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "test");
        ledger.open("h");
        for (size_t c = 0; c < runs_per_cell.size(); ++c)
            ledger.append(1, cellOfRuns(name(c), runs_per_cell[c]));
    }
    const std::string pristine = readBytes(path);
    const auto [starts, ends] = frameSpans(pristine);
    ASSERT_EQ(ends.size(), 1u + 3 + 4 + 3); // header + cells
    ASSERT_EQ(ends.back(), pristine.size());
    const size_t commit0 = 3;  // frame index of cell 0's commit
    const size_t commit1 = 7;  // cell 1's
    const size_t commit2 = 10; // cell 2's: the last frame
    const auto corrupt = [&](std::string &bytes, size_t frame) {
        bytes[(starts[frame] + ends[frame]) / 2] ^= 0x5a;
    };

    for (const bool lose_middle : {false, true}) {
        SCOPED_TRACE(lose_middle ? "middle and last commits lost"
                                 : "last commit lost");
        std::string bytes = pristine;
        corrupt(bytes, commit2);
        if (lose_middle)
            corrupt(bytes, commit1);
        writeBytes(path, bytes);
        {
            RunLedger ledger(path, "test");
            ledger.open("h");
            EXPECT_NE(ledger.find(1, ChipRef{}, name(0), 0), nullptr);
            EXPECT_EQ(ledger.find(1, ChipRef{}, name(1), 0) == nullptr,
                      lose_middle);
            EXPECT_EQ(ledger.find(1, ChipRef{}, name(2), 0), nullptr);
            EXPECT_EQ(ledger.size(), lose_middle ? 1u : 2u);
            // The committed prefix ends at the last intact commit.
            EXPECT_EQ(std::filesystem::file_size(path),
                      ends[lose_middle ? commit0 : commit1]);
            for (size_t c = lose_middle ? 1 : 2;
                 c < runs_per_cell.size(); ++c)
                ledger.append(1, cellOfRuns(name(c), runs_per_cell[c]));
        }
        // The re-run cells land on the cut and replay cleanly.
        const uint64_t skipped0 = counterValue("ledger.replay_skipped");
        RunLedger ledger(path, "test");
        ledger.open("h");
        EXPECT_EQ(counterValue("ledger.replay_skipped"), skipped0);
        EXPECT_EQ(ledger.size(), runs_per_cell.size());
        for (size_t c = 0; c < runs_per_cell.size(); ++c) {
            const CellMeasurement *cell =
                ledger.find(1, ChipRef{}, name(c), 0);
            ASSERT_NE(cell, nullptr) << "cell " << c;
            EXPECT_EQ(cell->runs.size(), runs_per_cell[c]);
        }
        EXPECT_EQ(readBytes(path), pristine);
    }
    std::remove(path.c_str());
}

TEST(RunLedger, EmptyLedgerRoundTrips)
{
    const std::string path = "/tmp/vmargin_test_ledger_empty";
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "test");
        ledger.open("header-v-test");
        EXPECT_EQ(ledger.size(), 0u);
    }
    // Reopen: just the magic and header frame, zero cells.
    RunLedger reopened(path, "test");
    reopened.open("header-v-test");
    EXPECT_EQ(reopened.size(), 0u);
    EXPECT_TRUE(reopened.entries().empty());
    EXPECT_EQ(reopened.find(0, ChipRef{}, "any", 0), nullptr);
    std::remove(path.c_str());
}

TEST(RunLedger, AppendFindRoundTripsAcrossReopen)
{
    const std::string path = "/tmp/vmargin_test_ledger_rt";
    std::remove(path.c_str());
    const CellMeasurement cell = makeCell("bwaves/ref", 2);
    {
        RunLedger ledger(path, "test");
        ledger.open("h");
        ledger.append(77, cell);
        ledger.append(77, makeCell("leslie3d/ref", 4));
        // Duplicate key: first write wins.
        ledger.append(77, makeCell("bwaves/ref", 2));
        EXPECT_EQ(ledger.size(), 2u);
    }
    RunLedger reopened(path, "test");
    reopened.open("h");
    ASSERT_EQ(reopened.size(), 2u);
    const CellMeasurement *found =
        reopened.find(77, ChipRef{}, "bwaves/ref", 2);
    ASSERT_NE(found, nullptr);
    ASSERT_EQ(found->runs.size(), cell.runs.size());
    EXPECT_EQ(found->runs[2].effects.toString(), "SC");
    EXPECT_EQ(found->watchdogInterventions, 2u);
    EXPECT_EQ(found->telemetry.retries, 5u);
    // Different config hash: not found.
    EXPECT_EQ(reopened.find(78, ChipRef{}, "bwaves/ref", 2), nullptr);
    std::remove(path.c_str());
}

TEST(RunLedger, AppendKeepsTheKeyNotTheCell)
{
    const std::string path = "/tmp/vmargin_test_ledger_keys";
    std::remove(path.c_str());
    CellMeasurement second = makeCell("bwaves/ref", 2);
    second.runs.resize(1);
    {
        RunLedger ledger(path, "test");
        ledger.open("h");
        ledger.append(7, makeCell("bwaves/ref", 2));
        ledger.append(7, second); // same key, other runs
        EXPECT_EQ(ledger.size(), 1u);
        EXPECT_EQ(ledger.find(7, ChipRef{}, "bwaves/ref", 2), nullptr)
            << "an appended cell's contents are not kept";
        EXPECT_TRUE(ledger.entries().empty());
    }
    RunLedger reopened(path, "test");
    reopened.open("h");
    ASSERT_EQ(reopened.size(), 1u);
    const CellMeasurement *found =
        reopened.find(7, ChipRef{}, "bwaves/ref", 2);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->runs.size(), 3u) << "the first writer's runs";
    std::remove(path.c_str());
}

TEST(RunLedger, ReplayedCellSurvivesLaterAppends)
{
    const std::string path = "/tmp/vmargin_test_ledger_stable";
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "test");
        ledger.open("h");
        ledger.append(1, makeCell("bwaves/ref", 0));
    }
    RunLedger reopened(path, "test");
    reopened.open("h");
    const CellMeasurement *found =
        reopened.find(1, ChipRef{}, "bwaves/ref", 0);
    ASSERT_NE(found, nullptr);
    for (CoreId core = 1; core <= 64; ++core)
        reopened.append(1, makeCell("bwaves/ref", core));
    EXPECT_EQ(reopened.size(), 65u);
    EXPECT_EQ(reopened.find(1, ChipRef{}, "bwaves/ref", 0), found);
    ASSERT_EQ(found->runs.size(), 3u);
    EXPECT_EQ(found->runs[2].effects.toString(), "SC");
    EXPECT_EQ(found->telemetry.retries, 5u);
    std::remove(path.c_str());
}

TEST(RunLedger, TakeMovesAReplayedCellOutOnce)
{
    const std::string path = "/tmp/vmargin_test_ledger_take";
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "test");
        ledger.open("h");
        ledger.append(3, makeCell("mcf/ref", 6));
    }
    RunLedger reopened(path, "test");
    reopened.open("h");
    EXPECT_EQ(reopened.take(4, ChipRef{}, "mcf/ref", 6), std::nullopt)
        << "other config hash";
    std::optional<CellMeasurement> taken =
        reopened.take(3, ChipRef{}, "mcf/ref", 6);
    ASSERT_TRUE(taken.has_value());
    EXPECT_EQ(taken->workloadId, "mcf/ref");
    EXPECT_EQ(taken->core, 6u);
    ASSERT_EQ(taken->runs.size(), 3u);
    EXPECT_EQ(taken->runs[0].key.voltage, 930);
    EXPECT_EQ(taken->watchdogInterventions, 2u);

    EXPECT_EQ(reopened.take(3, ChipRef{}, "mcf/ref", 6), std::nullopt)
        << "a second take finds nothing";
    EXPECT_EQ(reopened.find(3, ChipRef{}, "mcf/ref", 6), nullptr);
    EXPECT_EQ(reopened.size(), 1u) << "the key stays committed";
    ASSERT_EQ(reopened.entries().size(), 1u);
    EXPECT_TRUE(reopened.entries()[0].cell.runs.empty());

    reopened.append(3, makeCell("mcf/ref", 6)); // still first-write-wins
    EXPECT_EQ(reopened.size(), 1u);
    std::remove(path.c_str());
}

TEST(RunLedger, TruncatedTailIsDiscarded)
{
    const std::string path = "/tmp/vmargin_test_ledger_trunc";
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "test");
        ledger.open("h");
        ledger.append(1, makeCell("bwaves/ref", 0));
    }
    // A killed process leaves half a frame: committed cells survive,
    // the tail does not.
    {
        std::string frame;
        appendFrame(frame,
                    encodeRunRecord(makeRun("leslie3d/ref", 1, 930)));
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out << frame.substr(0, frame.size() - 3);
    }
    RunLedger reopened(path, "test");
    reopened.open("h");
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_NE(reopened.find(1, ChipRef{}, "bwaves/ref", 0), nullptr);

    // The torn bytes are cut from the file on open, so a resumed
    // session's re-run cell appends on a clean frame boundary.
    reopened.append(1, makeCell("leslie3d/ref", 1));
    RunLedger again(path, "test");
    again.open("h");
    EXPECT_EQ(again.size(), 2u);
    EXPECT_NE(again.find(1, ChipRef{}, "leslie3d/ref", 1), nullptr);
    std::remove(path.c_str());
}

TEST(RunLedger, TruncatedFramePrefixIsDiscarded)
{
    const std::string path = "/tmp/vmargin_test_ledger_prefix";
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "test");
        ledger.open("h");
        ledger.append(1, makeCell("bwaves/ref", 0));
    }
    {
        // Fewer bytes than even a frame prefix needs.
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out.write("\x03\x00\x00", 3);
    }
    RunLedger reopened(path, "test");
    reopened.open("h");
    EXPECT_EQ(reopened.size(), 1u);
    std::remove(path.c_str());
}

TEST(RunLedger, ChecksumMismatchSkipsRecordAndPoisonsCell)
{
    const std::string path = "/tmp/vmargin_test_ledger_crc";
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "test");
        ledger.open("h");
        ledger.append(1, makeCell("bwaves/ref", 0));
        ledger.append(1, makeCell("leslie3d/ref", 1));
    }
    // Flip one payload byte inside the *first* cell's frames; its
    // commit can no longer prove integrity, so the whole first cell
    // must be dropped while the second survives untouched.
    {
        std::fstream file(path, std::ios::binary | std::ios::in |
                                    std::ios::out);
        // Past magic (4) + header frame; corrupt a byte well inside
        // the first run record's payload.
        file.seekg(4);
        uint32_t header_len = 0;
        file.read(reinterpret_cast<char *>(&header_len), 4);
        const std::streamoff target =
            4 + 8 + static_cast<std::streamoff>(header_len) + 8 + 20;
        file.seekg(target);
        char byte = 0;
        file.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x5a);
        file.seekp(target);
        file.write(&byte, 1);
    }
    RunLedger reopened(path, "test");
    reopened.open("h");
    EXPECT_EQ(reopened.size(), 1u)
        << "the corrupted cell must be dropped, not half-loaded";
    EXPECT_EQ(reopened.find(1, ChipRef{}, "bwaves/ref", 0), nullptr);
    EXPECT_NE(reopened.find(1, ChipRef{}, "leslie3d/ref", 1), nullptr);
    std::remove(path.c_str());
}

TEST(RunLedger, CommitWithWrongRunCountIsRefused)
{
    const std::string path = "/tmp/vmargin_test_ledger_count";
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "test");
        ledger.open("h");
    }
    {
        // Hand-craft one run frame plus a commit claiming two runs:
        // the write-ahead contract says refuse the cell.
        std::string bytes;
        appendFrame(bytes,
                    encodeRunRecord(makeRun("bwaves/ref", 0, 930)));
        CellCommit commit;
        commit.configHash = 1;
        commit.workloadId = "bwaves/ref";
        commit.core = 0;
        commit.runCount = 2;
        appendFrame(bytes, encodeCellCommit(commit));
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out << bytes;
    }
    RunLedger reopened(path, "test");
    reopened.open("h");
    EXPECT_EQ(reopened.size(), 0u);
    std::remove(path.c_str());
}

DaemonRoundRecord
makeDaemonRound(int round)
{
    DaemonRoundRecord record;
    record.round = round;
    record.voltage = 900 - 5 * round;
    record.energyJoule = 1.5 + 0.001953125 * round;
    record.nominalJoule = 2.25 + 0.001953125 * round;
    record.anyAbnormal = round % 2 == 1;
    record.crashed = round == 3;
    record.reexecutions = round % 2;
    record.nominalFallback = round == 2;
    record.fallbackReason = round == 2 ? 1 : 0;
    record.guardSteps = round;
    record.canaryProbe = round == 4;
    record.safePinned = round == 3;
    return record;
}

SupervisorCheckpoint
makeCheckpoint(int rounds_completed)
{
    SupervisorCheckpoint state;
    state.roundsCompleted = static_cast<uint32_t>(rounds_completed);
    state.legacyClampMv = 10;
    state.legacyStreak = 2;
    state.watchdogResets = 3;
    state.machineResponsive = rounds_completed % 2 == 0;
    state.hasSensorSample = true;
    state.sensorSample = 51.0 + 0.0009765625 * rounds_completed;
    state.telemetry.retries = 7;
    state.telemetry.backoffUsTotal = 12345;
    state.supervisorEnabled = true;
    state.guardSteps = 4;
    state.peakGuardSteps = 6;
    state.cleanStreak = 1;
    state.clampReason = 2;
    state.backoffEvents = 3;
    state.narrowEvents = 1;
    state.quarantines = 2;
    state.readmissions = 1;
    state.canaryRounds = 2;
    state.canaryFailures = 1;
    state.pinnedRounds = 5;
    state.recentCrashRounds = {3, 7};
    SupervisorCheckpoint::CoreState core;
    core.core = 4;
    core.mode = 1;
    core.ceRate = 0.6180339887498949;
    core.ueRate = 0.125;
    core.sdcRate = 0.0078125;
    core.crashRate = 0.30000000000000004;
    core.ceEvents = 11;
    core.ueEvents = 2;
    core.sdcEvents = 1;
    core.crashEvents = 1;
    core.cleanInQuarantine = 2;
    state.cores.push_back(core);
    return state;
}

TEST(RunLedger, CountersMatchHandBuiltFile)
{
    const std::string path = "/tmp/vmargin_test_ledger_counters";
    const std::string header = "counter-h";
    std::remove(path.c_str());
    const uint64_t bytes0 = counterValue("ledger.append_bytes");
    const uint64_t units0 = counterValue("ledger.append_units");

    // Three cells of three runs and two daemon rounds: five units.
    {
        RunLedger ledger(path, "test");
        ledger.open(header);
        ledger.append(1, makeCell("bwaves/ref", 0));
        ledger.append(1, makeCell("bwaves/ref", 1));
        ledger.append(2, makeCell("leslie3d/ref", 0));
        ledger.append(2, makeCell("leslie3d/ref", 0)); // duplicate
        ledger.appendDaemonRound(makeDaemonRound(0), makeCheckpoint(1));
        ledger.appendDaemonRound(makeDaemonRound(1), makeCheckpoint(2));
    }
    // The magic and the header frame (u32 version, u32 length,
    // header bytes) are written at creation, not appended.
    const uint64_t preamble = 4 + 8 + 4 + 4 + header.size();
    const uint64_t committed = std::filesystem::file_size(path);
    EXPECT_EQ(counterValue("ledger.append_bytes") - bytes0,
              committed - preamble);
    EXPECT_EQ(counterValue("ledger.append_units") - units0, 5u);

    // Hostile tail: a checksum-failed frame, an unknown-kind frame
    // with a valid checksum, and a torn frame.
    {
        std::string bytes;
        appendFrame(bytes, encodeRunRecord(makeRun("x", 0, 900)));
        bytes[8 + 3] ^= 0x5a; // payload byte: checksum now fails
        appendFrame(bytes, "\x09");
        std::string torn;
        appendFrame(torn, encodeRunRecord(makeRun("y", 0, 900)));
        bytes += torn.substr(0, torn.size() - 4);
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out << bytes;
    }
    const uint64_t frames0 = counterValue("ledger.replay_frames");
    const uint64_t skipped0 = counterValue("ledger.replay_skipped");
    const uint64_t torn0 = counterValue("ledger.torn_tail_truncations");
    {
        RunLedger reopened(path, "test");
        reopened.open(header);
        // Header + 3 x (3 runs + commit) + 2 x (round + checkpoint)
        // + the two hostile whole frames.
        EXPECT_EQ(counterValue("ledger.replay_frames") - frames0,
                  1u + 3u * 4u + 2u * 2u + 2u);
        EXPECT_EQ(counterValue("ledger.replay_skipped") - skipped0,
                  2u);
        EXPECT_EQ(
            counterValue("ledger.torn_tail_truncations") - torn0, 1u);
        EXPECT_EQ(reopened.size(), 3u);
        EXPECT_EQ(reopened.daemonRounds().size(), 2u);

        // The hostile tail is cut on open; one more cell appends
        // right after the last committed unit.
        reopened.append(3, makeCell("bwaves/ref", 2));
    }
    EXPECT_EQ(counterValue("ledger.append_units") - units0, 6u);
    EXPECT_EQ(counterValue("ledger.append_bytes") - bytes0,
              std::filesystem::file_size(path) - preamble);
    std::remove(path.c_str());
}

/** Write one daemon round plus checkpoint and reopen the file. */
RunLedger::DaemonRoundEntry
reopenedDaemonRound(const std::string &path,
                    const DaemonRoundRecord &round,
                    const SupervisorCheckpoint &state)
{
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "test");
        ledger.open("daemon-h");
        ledger.appendDaemonRound(round, state);
    }
    RunLedger reopened(path, "test");
    reopened.open("daemon-h");
    EXPECT_EQ(reopened.daemonRounds().size(), 1u);
    RunLedger::DaemonRoundEntry entry = reopened.daemonRounds().at(0);
    std::remove(path.c_str());
    return entry;
}

TEST(LedgerCodec, DaemonRoundRoundTripsBitExact)
{
    // Round 0 carries a fallback, round 3 a crash and a pin, round 4
    // a canary: between them every flag bit is set once.
    for (const int number : {0, 2, 3, 4}) {
        DaemonRoundRecord round = makeDaemonRound(number);
        round.round = 0; // the only round in its file
        const DaemonRoundRecord got =
            reopenedDaemonRound("/tmp/vmargin_test_ledger_codec_round",
                                round, makeCheckpoint(1))
                .round;
        EXPECT_EQ(got.round, round.round);
        EXPECT_EQ(got.voltage, round.voltage);
        EXPECT_EQ(got.energyJoule, round.energyJoule);
        EXPECT_EQ(got.nominalJoule, round.nominalJoule);
        EXPECT_EQ(got.anyAbnormal, round.anyAbnormal);
        EXPECT_EQ(got.crashed, round.crashed);
        EXPECT_EQ(got.reexecutions, round.reexecutions);
        EXPECT_EQ(got.nominalFallback, round.nominalFallback);
        EXPECT_EQ(got.fallbackReason, round.fallbackReason);
        EXPECT_EQ(got.guardSteps, round.guardSteps);
        EXPECT_EQ(got.canaryProbe, round.canaryProbe);
        EXPECT_EQ(got.safePinned, round.safePinned);
    }
}

TEST(LedgerCodec, SupervisorCheckpointRoundTripsBitExact)
{
    const SupervisorCheckpoint state = makeCheckpoint(1);
    const SupervisorCheckpoint got =
        reopenedDaemonRound("/tmp/vmargin_test_ledger_codec_ckpt",
                            makeDaemonRound(0), state)
            .state;
    EXPECT_EQ(got.roundsCompleted, state.roundsCompleted);
    EXPECT_EQ(got.legacyClampMv, state.legacyClampMv);
    EXPECT_EQ(got.legacyStreak, state.legacyStreak);
    EXPECT_EQ(got.watchdogResets, state.watchdogResets);
    EXPECT_EQ(got.machineResponsive, state.machineResponsive);
    EXPECT_EQ(got.hasSensorSample, state.hasSensorSample);
    EXPECT_EQ(got.sensorSample, state.sensorSample);
    EXPECT_EQ(got.telemetry.retries, state.telemetry.retries);
    EXPECT_EQ(got.telemetry.backoffUsTotal,
              state.telemetry.backoffUsTotal);
    EXPECT_EQ(got.supervisorEnabled, state.supervisorEnabled);
    EXPECT_EQ(got.guardSteps, state.guardSteps);
    EXPECT_EQ(got.peakGuardSteps, state.peakGuardSteps);
    EXPECT_EQ(got.cleanStreak, state.cleanStreak);
    EXPECT_EQ(got.clampReason, state.clampReason);
    EXPECT_EQ(got.backoffEvents, state.backoffEvents);
    EXPECT_EQ(got.narrowEvents, state.narrowEvents);
    EXPECT_EQ(got.quarantines, state.quarantines);
    EXPECT_EQ(got.readmissions, state.readmissions);
    EXPECT_EQ(got.canaryRounds, state.canaryRounds);
    EXPECT_EQ(got.canaryFailures, state.canaryFailures);
    EXPECT_EQ(got.pinnedRounds, state.pinnedRounds);
    EXPECT_EQ(got.recentCrashRounds, state.recentCrashRounds);
    ASSERT_EQ(got.cores.size(), 1u);
    EXPECT_EQ(got.cores[0].core, state.cores[0].core);
    EXPECT_EQ(got.cores[0].mode, state.cores[0].mode);
    // Bit-exact rates are what make a restored supervisor take the
    // same decisions as the uninterrupted one.
    EXPECT_EQ(got.cores[0].ceRate, state.cores[0].ceRate);
    EXPECT_EQ(got.cores[0].ueRate, state.cores[0].ueRate);
    EXPECT_EQ(got.cores[0].sdcRate, state.cores[0].sdcRate);
    EXPECT_EQ(got.cores[0].crashRate, state.cores[0].crashRate);
    EXPECT_EQ(got.cores[0].ceEvents, state.cores[0].ceEvents);
    EXPECT_EQ(got.cores[0].cleanInQuarantine,
              state.cores[0].cleanInQuarantine);
}

TEST(RunLedger, DaemonRoundsSurviveReopen)
{
    const std::string path = "/tmp/vmargin_test_ledger_daemon";
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "test");
        ledger.open("daemon-h");
        for (int round = 0; round < 3; ++round)
            ledger.appendDaemonRound(makeDaemonRound(round),
                                     makeCheckpoint(round + 1));
    }
    RunLedger reopened(path, "test");
    reopened.open("daemon-h");
    ASSERT_EQ(reopened.daemonRounds().size(), 3u);
    for (int round = 0; round < 3; ++round) {
        EXPECT_EQ(reopened.daemonRounds()[round].round.round, round);
        EXPECT_EQ(reopened.daemonRounds()[round].round.voltage,
                  900 - 5 * round);
        EXPECT_EQ(
            reopened.daemonRounds()[round].state.roundsCompleted,
            static_cast<uint32_t>(round + 1));
    }
    std::remove(path.c_str());
}

TEST(RunLedger, DaemonRoundWithoutCheckpointPoisonsTheTail)
{
    const std::string path = "/tmp/vmargin_test_ledger_orphan";
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "test");
        ledger.open("daemon-h");
        ledger.appendDaemonRound(makeDaemonRound(0),
                                 makeCheckpoint(1));
    }
    {
        // A kill between the round frame and its checkpoint: the
        // orphan round — and any daemon frames after it — must be
        // discarded, even a well-formed later pair.
        std::string bytes;
        appendFrame(bytes, encodeDaemonRound(makeDaemonRound(1)));
        appendFrame(bytes, encodeDaemonRound(makeDaemonRound(2)));
        appendFrame(bytes,
                    encodeSupervisorCheckpoint(makeCheckpoint(3)));
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out << bytes;
    }
    RunLedger reopened(path, "test");
    reopened.open("daemon-h");
    ASSERT_EQ(reopened.daemonRounds().size(), 1u)
        << "only the committed round survives";
    EXPECT_EQ(reopened.daemonRounds()[0].round.round, 0);
    std::remove(path.c_str());
}

TEST(RunLedger, OutOfSequenceDaemonRoundPoisonsTheTail)
{
    const std::string path = "/tmp/vmargin_test_ledger_seq";
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "test");
        ledger.open("daemon-h");
        ledger.appendDaemonRound(makeDaemonRound(0),
                                 makeCheckpoint(1));
        ledger.appendDaemonRound(makeDaemonRound(1),
                                 makeCheckpoint(2));
    }
    {
        // Round 3 with round 2 missing: resuming past the hole
        // would continue a wrong trajectory.
        std::string bytes;
        appendFrame(bytes, encodeDaemonRound(makeDaemonRound(3)));
        appendFrame(bytes,
                    encodeSupervisorCheckpoint(makeCheckpoint(4)));
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out << bytes;
    }
    RunLedger reopened(path, "test");
    reopened.open("daemon-h");
    ASSERT_EQ(reopened.daemonRounds().size(), 2u);
    EXPECT_EQ(reopened.daemonRounds()[1].round.round, 1);
    std::remove(path.c_str());
}

TEST(RunLedger, TruncatedDaemonCheckpointDiscardsItsRound)
{
    const std::string path = "/tmp/vmargin_test_ledger_dtrunc";
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "test");
        ledger.open("daemon-h");
        ledger.appendDaemonRound(makeDaemonRound(0),
                                 makeCheckpoint(1));
        ledger.appendDaemonRound(makeDaemonRound(1),
                                 makeCheckpoint(2));
    }
    {
        // Chop into the second checkpoint: its round loses the
        // commit and must be re-run.
        std::fstream file(path, std::ios::binary | std::ios::in |
                                    std::ios::out | std::ios::ate);
        const std::streamoff size = file.tellg();
        std::filesystem::resize_file(
            path, static_cast<uintmax_t>(size - 5));
    }
    RunLedger reopened(path, "test");
    reopened.open("daemon-h");
    ASSERT_EQ(reopened.daemonRounds().size(), 1u);
    EXPECT_EQ(reopened.daemonRounds()[0].round.round, 0);
    std::remove(path.c_str());
}

TEST(RunLedgerDeath, RefusesForeignFile)
{
    const std::string path = "/tmp/vmargin_test_ledger_foreign";
    {
        std::ofstream out(path);
        out << "not a ledger at all\n";
    }
    RunLedger ledger(path, "test");
    EXPECT_EXIT(ledger.open("h"), ::testing::ExitedWithCode(1),
                "not a vmargin ledger");
    std::remove(path.c_str());
}

TEST(RunLedgerDeath, CorruptHeaderFrameIsFatal)
{
    // The header frame is checked in the first lane group, together
    // with the record frames after it; a corrupt header still ends
    // the open, whatever those frames hold.
    const std::string path = "/tmp/vmargin_test_ledger_bad_header";
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "test");
        ledger.open("h");
        ledger.append(1, makeCell("bwaves/ref", 0));
        ledger.append(1, makeCell("leslie3d/ref", 1));
    }
    std::string bytes = readBytes(path);
    bytes.back() ^= 0x5a; // a record frame is corrupt too
    bytes[4 + 8] ^= 0x01; // the header's version field
    writeBytes(path, bytes);
    RunLedger ledger(path, "test");
    EXPECT_EXIT(ledger.open("h"), ::testing::ExitedWithCode(1),
                "corrupt header frame");
    std::remove(path.c_str());
}

TEST(RunLedgerDeath, RefusesVersionMismatch)
{
    const std::string path = "/tmp/vmargin_test_ledger_version";
    std::remove(path.c_str());
    {
        // A file claiming framing version kLedgerVersion + 1: the
        // header frame is (u32 version, string header).
        std::string payload;
        const uint32_t version = kLedgerVersion + 1;
        for (int shift = 0; shift < 32; shift += 8)
            payload.push_back(
                static_cast<char>((version >> shift) & 0xffu));
        const std::string header = "h";
        const uint32_t len = static_cast<uint32_t>(header.size());
        for (int shift = 0; shift < 32; shift += 8)
            payload.push_back(
                static_cast<char>((len >> shift) & 0xffu));
        payload += header;

        std::string bytes(kLedgerMagic, 4);
        appendFrame(bytes, payload);
        std::ofstream out(path, std::ios::binary);
        out << bytes;
    }
    RunLedger ledger(path, "test");
    EXPECT_EXIT(ledger.open("h"), ::testing::ExitedWithCode(1),
                "refusing to mix versions");
    std::remove(path.c_str());
}

TEST(RunLedgerDeath, RefusesHeaderMismatchWithHint)
{
    const std::string path = "/tmp/vmargin_test_ledger_hdr";
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "test");
        ledger.open("experiment-A");
    }
    RunLedger ledger(path, "test");
    EXPECT_EXIT(ledger.open("experiment-B", "belongs elsewhere"),
                ::testing::ExitedWithCode(1), "belongs elsewhere");
    std::remove(path.c_str());
}

TEST(LedgerView, DerivesRegionsSeverityAndOrder)
{
    LedgerView view;
    // Stream two cells interleaved; first-seen order must hold.
    view.add(makeRun("b", 1, 930));
    view.add(makeRun("a", 0, 930));
    view.add(makeRun("b", 1, 925, 1, true));
    view.add(makeRun("a", 0, 925));
    EXPECT_EQ(view.runCount(), 4u);
    ASSERT_EQ(view.cellOrder().size(), 2u);
    EXPECT_EQ(view.cellOrder()[0].workloadId, "b");
    EXPECT_EQ(view.cellOrder()[1].workloadId, "a");

    const RegionAnalysis *crashy = view.analysis("b", 1);
    ASSERT_NE(crashy, nullptr);
    EXPECT_EQ(crashy->regions.at(925), Region::Crash);
    EXPECT_EQ(crashy->regions.at(930), Region::Safe);
    EXPECT_EQ(crashy->vmin, 930);
    EXPECT_GT(view.severityByVoltage("b", 1).at(925), 0.0);
    EXPECT_EQ(view.severityByVoltage("a", 0).at(925), 0.0);
    EXPECT_EQ(view.analysis("missing", 9), nullptr);

    const auto cells = view.cellResults();
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].workloadId, "b");
    EXPECT_EQ(cells[1].analysis.vmin, 925);
}

TEST(LedgerView, LaterAddsInvalidateMemoizedAnalysis)
{
    LedgerView view;
    view.add(makeRun("a", 0, 930));
    EXPECT_EQ(view.analysis("a", 0)->vmin, 930);
    // A crash at 925 arrives after the first analysis: the view
    // must recompute, not serve the stale memo.
    view.add(makeRun("a", 0, 925, 1, true));
    EXPECT_EQ(view.analysis("a", 0)->regions.at(925),
              Region::Crash);
    EXPECT_EQ(view.analysis("a", 0)->vmin, 930);
}

TEST(LedgerView, DeriveAllMatchesLazyAnalysisAtAnyWorkerCount)
{
    // 72 cells over a voltage staircase: safe cells, cells with an
    // unsafe band above a crash, and a few censored at the top.
    std::vector<RunRecord> records;
    for (int cell = 0; cell < 72; ++cell) {
        const std::string workload = "wl" + std::to_string(cell % 9);
        const CoreId core = static_cast<CoreId>(cell / 9);
        const MilliVolt floor = 880 + 5 * (cell % 7);
        for (MilliVolt v = 930; v >= 870; v -= 10) {
            for (uint32_t i = 0; i < 2; ++i) {
                RunRecord run = makeRun(workload, core, v, i,
                                        v < floor - 10 && i == 1);
                if (v < floor && cell % 3 != 0)
                    run.effects.add(Effect::CE);
                if (v < floor && cell % 4 == 1)
                    run.effects.add(Effect::SDC);
                if (cell % 23 == 5) // abnormal at the top: censored
                    run.effects.add(Effect::AC);
                records.push_back(run);
            }
        }
    }
    const auto derived = [&](int workers) {
        LedgerView view;
        view.addAll(records);
        if (workers > 0) {
            view.deriveAll(workers);
        } else {
            // Lazy: analyze on demand, in reverse cell order.
            for (auto it = view.cellOrder().rbegin();
                 it != view.cellOrder().rend(); ++it)
                EXPECT_NE(view.analysis(it->workloadId, it->core),
                          nullptr);
        }
        return view.cellResults();
    };
    const std::vector<CellResult> lazy = derived(0);
    ASSERT_EQ(lazy.size(), 72u);
    for (const int workers : {1, 8}) {
        const std::vector<CellResult> cells = derived(workers);
        ASSERT_EQ(cells.size(), lazy.size());
        for (size_t i = 0; i < cells.size(); ++i) {
            SCOPED_TRACE("workers " + std::to_string(workers) +
                         ", cell " + std::to_string(i));
            const RegionAnalysis &got = cells[i].analysis;
            const RegionAnalysis &want = lazy[i].analysis;
            EXPECT_EQ(cells[i].workloadId, lazy[i].workloadId);
            EXPECT_EQ(cells[i].core, lazy[i].core);
            EXPECT_EQ(got.runsByVoltage, want.runsByVoltage);
            EXPECT_EQ(got.regions, want.regions);
            EXPECT_EQ(got.severityByVoltage, want.severityByVoltage);
            EXPECT_EQ(got.vmin, want.vmin);
            EXPECT_EQ(got.highestCrashVoltage, want.highestCrashVoltage);
            EXPECT_EQ(got.highestAbnormalVoltage,
                      want.highestAbnormalVoltage);
        }
    }
    // The cells differ: the staircase produced more than one Vmin.
    EXPECT_NE(lazy.front().analysis.vmin, lazy[1].analysis.vmin);
}

} // namespace
} // namespace vmargin
