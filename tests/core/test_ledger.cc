/**
 * @file
 * RunLedger framing and recovery semantics: record round-trips,
 * truncated tails, checksum corruption (skip-and-warn, poisoned
 * commits), empty ledgers, version mismatches, and the LedgerView
 * derived-view aggregator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/ledger.hh"
#include "ledger_files.hh"
#include "obs/metrics.hh"
#include "util/rng.hh"
#include "util/threadpool.hh"

namespace vmargin
{
namespace
{

using ledger_files::createLedgerFile;

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
    createLedgerFile(path, "h", 2);
    // Each hostile frame carries a valid checksum, so it reaches the
    // decoder of a version-2 file: an empty payload, an unknown kind
    // byte, and a run record cut in half. Each is skipped as malformed, and the
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
    // A version-2 run frame whose checksum is valid but which
    // carries a value no encoder writes (one field patched, checksum
    // recomputed) is a malformed record: skipped, counted, and its
    // cell refused. The next cell still loads. The cases: an effects
    // field naming no effect ("NO" patched to "ZZ") or spelled other
    // than EffectSet::toString spells a set (empty, padded,
    // reordered, repeated), and a site list with an unknown site, a
    // repeated site or a zero count.
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
    const auto effects = [&](const std::string &text) {
        return patched(length_2 + "NO",
                       std::string(1, static_cast<char>(text.size())) +
                           std::string(3, '\0') + text);
    };
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"unknown effect name",
         patched(length_2 + "NO", length_2 + "ZZ")},
        {"empty effects text", effects("")},
        {"padded effect name", effects(" CE")},
        {"effects out of order", effects("CE,SDC")},
        {"repeated effect", effects("CE,CE")},
        {"unknown site name", patched("L3Cache", "L9Cache")},
        {"repeated site name", patched("L3Cache", "L2Cache")},
        {"zero site count",
         patched("L2Cache" + count_3, "L2Cache" + count_0)},
    };

    const std::string path = "/tmp/vmargin_test_ledger_bad_effect";
    for (const auto &[what, run] : cases) {
        SCOPED_TRACE(what);
        createLedgerFile(path, "h", 2);
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

/** Body of RunLedger.LaneVerifiedReplayMatchesFrameByFrame, its
 *  replays verifying on @p pool (nullptr: the calling thread). */
void
checkLaneVerifiedReplay(util::ThreadPool *pool)
{
    // Replay checks frame checksums kLedgerChecksumLanes at a time.
    // Corrupting one payload byte of any single record frame, at
    // every position in a lane group and in the frames after the
    // last full group, must give what a frame-by-frame check gives:
    // one skipped frame; a corrupt run or commit frame refuses its
    // own cell and no other (a lost frame drops the pending runs, so
    // the next cell starts clean); the file is cut back only when
    // the dangling frames end it.
    const std::string path = std::string("/tmp/vmargin_test_ledger_lanes") +
                             (pool ? "_pool" : "");
    const std::vector<size_t> runs_per_cell = {3, 1, 2, 4, 3, 2};
    const auto name = [](size_t cell) {
        return "cell" + std::to_string(cell) + "/ref";
    };
    // A version-2 file: a frame per run, then a commit frame.
    createLedgerFile(path, "h", 2);
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
        ledger.open("h", "", {}, pool);
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

TEST(RunLedger, LaneVerifiedReplayMatchesFrameByFrame)
{
    checkLaneVerifiedReplay(nullptr);
}

TEST(RunLedger, LaneVerifiedReplayMatchesFrameByFrameOnTwoWorkers)
{
    util::ThreadPool pool(2);
    checkLaneVerifiedReplay(&pool);
}

/** Body of RunLedger.CorruptLastCommitRefusesOnlyItsCell, its
 *  replays verifying on @p pool (nullptr: the calling thread). */
void
checkCorruptLastCommit(util::ThreadPool *pool)
{
    // Cells of 2, 3 and 2 runs. Losing the last commit frame leaves
    // the last cell's runs dangling after the previous commit: that
    // cell alone is refused, the file is cut back to the previous
    // commit, and re-appending the cell makes the ledger whole.
    // Losing the middle commit as well refuses the middle cell too
    // (and only it) and cuts the file back to the first commit.
    const std::string path =
        std::string("/tmp/vmargin_test_ledger_last_commit") +
        (pool ? "_pool" : "");
    const std::vector<size_t> runs_per_cell = {2, 3, 2};
    const auto name = [](size_t cell) {
        return "cell" + std::to_string(cell) + "/ref";
    };
    createLedgerFile(path, "h", 2); // commit frames are version 2's
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
            ledger.open("h", "", {}, pool);
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
        ledger.open("h", "", {}, pool);
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

TEST(RunLedger, CorruptLastCommitRefusesOnlyItsCell)
{
    checkCorruptLastCommit(nullptr);
}

TEST(RunLedger, CorruptLastCommitRefusesOnlyItsCellOnTwoWorkers)
{
    util::ThreadPool pool(2);
    checkCorruptLastCommit(&pool);
}

TEST(RunLedger, ReplayedCellsHoldExactSizeRuns)
{
    // Cells of unequal run counts, replayed on the calling thread and
    // on two workers: every cell take() returns holds its runs in a
    // vector of exactly their number, never one grown past it.
    const std::string path = "/tmp/vmargin_test_ledger_exact_runs";
    const std::vector<size_t> runs_per_cell = {5, 1, 3, 7, 2, 6};
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
    util::ThreadPool two(2);
    for (util::ThreadPool *pool : {(util::ThreadPool *)nullptr, &two}) {
        SCOPED_TRACE(pool ? "two workers" : "calling thread");
        RunLedger ledger(path, "test");
        ledger.open("h", "", {}, pool);
        for (size_t c = 0; c < runs_per_cell.size(); ++c) {
            const std::optional<CellMeasurement> cell =
                ledger.take(1, ChipRef{}, name(c), 0);
            ASSERT_TRUE(cell) << "cell " << c;
            EXPECT_EQ(cell->runs.size(), runs_per_cell[c]);
            EXPECT_EQ(cell->runs.capacity(), cell->runs.size())
                << "cell " << c;
        }
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
    createLedgerFile(path, "h", 2); // a frame per run: see below
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
    createLedgerFile(path, "h", 2);
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

/** The frames of an intact cell of @p workload on core 4 under
 *  configuration hash 1, as a ledger of framing @p version holds it. */
std::vector<std::string>
intactCellFrames(uint32_t version, const std::string &workload)
{
    const CellMeasurement cell = makeCell(workload, 4);
    if (version >= 3)
        return {encodeCell(1, cell)};
    std::vector<std::string> frames;
    for (const RunRecord &run : cell.runs)
        frames.push_back(encodeRunRecord(run));
    CellCommit commit;
    commit.configHash = 1;
    commit.workloadId = workload;
    commit.core = 4;
    commit.runCount = static_cast<uint32_t>(cell.runs.size());
    frames.push_back(encodeCellCommit(commit));
    return frames;
}

TEST(RunLedger, ImpossibleCellValuesAreRefused)
{
    // Checksum-valid cell frames (version 3) and run and commit
    // frames (version 2) carrying a value no session writes. Each
    // refuses its cell; the intact cell after it is kept. A malformed
    // frame is also skipped and counted; a version-2 cell whose runs
    // are of another workload or core decodes but is refused.
    const std::string id = "bwaves/ref";
    const CellMeasurement good = makeCell(id, 2);
    // Cell frame offsets: the kind byte, config hash, corner, serial
    // and id, then core, frequency, watchdog count, five telemetry
    // counters and the run count; the first run after them.
    const size_t core_at = 1 + 8 + 1 + 4 + 4 + id.size();
    const size_t frequency_at = core_at + 4;
    const size_t count_at = frequency_at + 4 + 8 + 5 * 8;
    const size_t run_at = count_at + 4;
    const auto patchedCell = [&](size_t at, const std::string &bytes) {
        std::string payload = encodeCell(1, good);
        payload.replace(at, bytes.size(), bytes);
        return payload;
    };
    const std::string all_ones(4, '\xff');
    const auto run = [&](const std::string &workload, CoreId core) {
        return encodeRunRecord(makeRun(workload, core, 930));
    };
    const auto commit = [&](CoreId core, uint32_t runs,
                            uint8_t corner = 0) {
        CellCommit c;
        c.configHash = 1;
        c.workloadId = id;
        c.core = core;
        c.runCount = runs;
        c.chip.corner = static_cast<sim::ChipCorner>(corner);
        return encodeCellCommit(c);
    };
    CellMeasurement empty = good;
    empty.runs.clear();

    struct Case
    {
        const char *what;
        uint32_t version;
        std::vector<std::string> frames;
        uint64_t skipped;
    };
    const std::vector<Case> cases = {
        {"cell core 2^32 - 1", 3, {patchedCell(core_at, all_ones)}, 1},
        {"cell corner past TSS", 3, {patchedCell(9, "\x03")}, 1},
        {"effect mask 32", 3, {patchedCell(run_at + 12, "\x20")}, 1},
        {"site mask bit 4", 3, {patchedCell(run_at + 65, "\x12")}, 1},
        {"zero site count", 3,
         {patchedCell(run_at + 67, std::string(8, '\0'))}, 1},
        {"byte after the last run", 3, {encodeCell(1, good) + '\0'}, 1},
        {"run count past the payload", 3,
         {patchedCell(count_at, "\x04")}, 1},
        {"frequency on a cell with no runs", 3,
         {[&] {
             std::string payload = encodeCell(1, empty);
             payload.replace(frequency_at, 4, "\x60\x09\0\0", 4);
             return payload;
         }()},
         1},
        {"run core 2^32 - 1", 2, {run(id, -1), commit(-1, 1)}, 2},
        {"commit core 2^32 - 1", 2, {commit(-1, 0)}, 1},
        {"commit corner past TSS", 2, {run(id, 2), commit(2, 1, 3)}, 1},
        {"run of another workload", 2, {run("mcf/ref", 2), commit(2, 1)},
         0},
        {"run of another core", 2, {run(id, 3), commit(2, 1)}, 0},
    };
    // An intact cell before the bad frames, and in a version-3 file
    // one after them too. (In a version-2 file a malformed frame with
    // no runs pending may have been the next cell's first run, so the
    // next cell is refused as well.)
    const std::string path = "/tmp/vmargin_test_ledger_cell_values";
    for (const Case &bad : cases) {
        SCOPED_TRACE(bad.what);
        createLedgerFile(path, "h", bad.version);
        std::vector<std::string> frames = intactCellFrames(bad.version, "leslie3d/ref");
        frames.insert(frames.end(), bad.frames.begin(), bad.frames.end());
        if (bad.version >= 3)
            frames.push_back(intactCellFrames(bad.version, "namd/ref").front());
        appendRawFrames(path, frames);

        const uint64_t skipped0 = counterValue("ledger.replay_skipped");
        RunLedger ledger(path, "test");
        ::testing::internal::CaptureStderr();
        ledger.open("h");
        (void)::testing::internal::GetCapturedStderr();
        EXPECT_EQ(counterValue("ledger.replay_skipped") - skipped0,
                  bad.skipped);
        EXPECT_EQ(ledger.size(), bad.version >= 3 ? 2u : 1u)
            << "the bad cell must be refused";
        EXPECT_NE(ledger.find(1, ChipRef{}, "leslie3d/ref", 4), nullptr);
        if (bad.version >= 3) {
            EXPECT_NE(ledger.find(1, ChipRef{}, "namd/ref", 4), nullptr);
        }
    }
    std::remove(path.c_str());
}

TEST(RunLedger, RecordFramesOfTheOtherVersionAreMalformed)
{
    // A version-3 file holds cells in cell frames only, an older one
    // in run and commit frames only: each other kind is a malformed
    // record there. The intact cell before it loads, and in a
    // version-3 file the one after it too.
    const CellMeasurement cell = makeCell("bwaves/ref", 2);
    CellCommit commit;
    commit.configHash = 1;
    commit.workloadId = cell.workloadId;
    commit.core = cell.core;
    commit.runCount = 1;
    const std::string path = "/tmp/vmargin_test_ledger_other_version";
    for (const uint32_t version : {3u, 2u}) {
        SCOPED_TRACE("version " + std::to_string(version));
        createLedgerFile(path, "h", version);
        std::vector<std::string> frames =
            intactCellFrames(version, "leslie3d/ref");
        if (version >= 3) {
            frames.push_back(encodeRunRecord(cell.runs[0]));
            frames.push_back(encodeCellCommit(commit));
            frames.push_back(intactCellFrames(version, "namd/ref").front());
        } else {
            frames.push_back(encodeCell(1, cell));
        }
        appendRawFrames(path, frames);

        const uint64_t skipped0 = counterValue("ledger.replay_skipped");
        RunLedger ledger(path, "test");
        ::testing::internal::CaptureStderr();
        ledger.open("h");
        const std::string warnings =
            ::testing::internal::GetCapturedStderr();
        EXPECT_EQ(counterValue("ledger.replay_skipped") - skipped0,
                  version >= 3 ? 2u : 1u);
        EXPECT_NE(warnings.find("malformed record"), std::string::npos);
        EXPECT_EQ(ledger.fileVersion(), version);
        EXPECT_EQ(ledger.size(), version >= 3 ? 2u : 1u);
        EXPECT_NE(ledger.find(1, ChipRef{}, "leslie3d/ref", 4), nullptr);
        EXPECT_EQ(ledger.find(1, ChipRef{}, "bwaves/ref", 2), nullptr);
    }
    std::remove(path.c_str());
}

/** Body of RunLedger.CorruptCellFrameRefusesOnlyItsCell, its replays
 *  verifying on @p pool (nullptr: the calling thread). */
void
checkCorruptCellFrame(util::ThreadPool *pool)
{
    // A version-3 cell is one frame under one checksum: corrupting
    // any one cell frame refuses that cell and no other, and the
    // file is cut back only when the corrupt frame ends it.
    const std::string path =
        std::string("/tmp/vmargin_test_ledger_cell_frames") +
        (pool ? "_pool" : "");
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
    const auto [starts, ends] = frameSpans(pristine);
    ASSERT_EQ(ends.size(), 1 + runs_per_cell.size());

    for (size_t f = 1; f < ends.size(); ++f) {
        SCOPED_TRACE("frame " + std::to_string(f));
        std::string bytes = pristine;
        bytes[(starts[f] + ends[f]) / 2] ^= 0x5a;
        writeBytes(path, bytes);

        const uint64_t skipped0 = counterValue("ledger.replay_skipped");
        RunLedger ledger(path, "test");
        ledger.open("h", "", {}, pool);
        EXPECT_EQ(counterValue("ledger.replay_skipped") - skipped0, 1u);
        for (size_t c = 0; c < runs_per_cell.size(); ++c) {
            const CellMeasurement *cell =
                ledger.find(1, ChipRef{}, name(c), 0);
            EXPECT_EQ(cell == nullptr, c + 1 == f) << "cell " << c;
            if (cell != nullptr) {
                EXPECT_EQ(cell->runs.size(), runs_per_cell[c]);
            }
        }
        EXPECT_EQ(std::filesystem::file_size(path),
                  f + 1 == ends.size() ? ends[f - 1] : pristine.size());
    }
    std::remove(path.c_str());
}

TEST(RunLedger, CorruptCellFrameRefusesOnlyItsCell)
{
    checkCorruptCellFrame(nullptr);
}

TEST(RunLedger, CorruptCellFrameRefusesOnlyItsCellOnTwoWorkers)
{
    util::ThreadPool pool(2);
    checkCorruptCellFrame(&pool);
}

TEST(LedgerCodec, AcceptedCellFramesReencodeToTheirOwnBytes)
{
    // Every cell a version-3 replay keeps encodes back to the bytes
    // of the frame it came from: an empty cell, every effect set,
    // every site in both lists, a chip and a configuration hash.
    const std::string path = "/tmp/vmargin_test_ledger_canonical";
    std::remove(path.c_str());
    CellMeasurement wide = makeCell("mcf/ref", 7);
    wide.chip = ChipRef{sim::ChipCorner::TSS, 9};
    wide.runs.clear();
    for (size_t bits = 0; bits < kEffectSets; ++bits) {
        RunRecord run = makeRun("mcf/ref", 7, 900,
                                static_cast<uint32_t>(bits));
        run.effects = EffectSet::fromBits(bits);
        run.exitCode = -static_cast<int>(bits);
        for (size_t site = 0; site < sim::kErrorSites; ++site) {
            if ((bits >> site) & 1u)
                run.correctedBySite.bySite[site] = bits + site;
            if ((bits >> (site + 1)) & 1u)
                run.uncorrectedBySite.bySite[site] = ~uint64_t{site};
        }
        wide.runs.push_back(run);
    }
    CellMeasurement empty = makeCell("namd/ref", 1);
    empty.runs.clear();
    {
        RunLedger ledger(path, "test");
        ledger.open("h");
        ledger.append(0xfeedfacecafebeefull, wide);
        ledger.append(0, empty);
        ledger.append(5, makeCell("bwaves/ref", 0));
    }
    const std::string bytes = readBytes(path);
    const auto [starts, ends] = frameSpans(bytes);
    RunLedger reopened(path, "test");
    reopened.open("h");
    ASSERT_EQ(reopened.entries().size(), 3u);
    ASSERT_EQ(ends.size(), 4u);
    for (size_t i = 0; i < 3; ++i) {
        const RunLedger::Entry &entry = reopened.entries()[i];
        EXPECT_EQ(encodeCell(entry.configHash, entry.cell),
                  bytes.substr(starts[i + 1], ends[i + 1] - starts[i + 1]))
            << "cell " << i;
    }
    EXPECT_EQ(reopened.entries()[0].cell.runs, wide.runs);
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
    SupervisorPosture &posture = state.supervisor;
    posture.guardSteps = 4;
    posture.peakGuardSteps = 6;
    posture.cleanStreak = 1;
    posture.clampReason = ClampReason::WatchdogExhausted;
    posture.backoffEvents = 3;
    posture.narrowEvents = 1;
    posture.quarantines = 2;
    posture.readmissions = 1;
    posture.canaryRounds = 2;
    posture.canaryFailures = 1;
    posture.pinnedRounds = 5;
    // A crash window holds rounds already served.
    for (int round = std::max(0, rounds_completed - 2);
         round < rounds_completed; ++round)
        posture.recentCrashRounds.push_back(static_cast<uint32_t>(round));
    SupervisorPosture::CoreState core;
    core.core = 4;
    core.quarantined = true;
    core.ceRate = 0.6180339887498949;
    core.ueRate = 0.125;
    core.sdcRate = 0.0078125;
    core.crashRate = 0.30000000000000004;
    core.ceEvents = 11;
    core.ueEvents = 2;
    core.sdcEvents = 1;
    core.crashEvents = 1;
    core.cleanInQuarantine = 2;
    posture.cores.push_back(core);
    core.core = 6;
    core.quarantined = false;
    core.ceRate = 0.25;
    core.cleanInQuarantine = 0;
    posture.cores.push_back(core);
    return state;
}

TEST(RunLedger, CountersMatchHandBuiltFile)
{
    // A version-3 file holds a cell in one frame, a version-2 file in
    // a frame per run plus a commit frame.
    for (const uint32_t version : {3u, 2u}) {
        SCOPED_TRACE("version " + std::to_string(version));
        const std::string path = "/tmp/vmargin_test_ledger_counters";
        const std::string header = "counter-h";
        std::remove(path.c_str());
        if (version != kLedgerVersion)
            createLedgerFile(path, header, version);
        const uint64_t bytes0 = counterValue("ledger.append_bytes");
        const uint64_t units0 = counterValue("ledger.append_units");

        // Three cells of three runs and two daemon rounds: five units.
        {
            RunLedger ledger(path, "test");
            ledger.open(header);
            EXPECT_EQ(ledger.fileVersion(), version);
            ledger.append(1, makeCell("bwaves/ref", 0));
            ledger.append(1, makeCell("bwaves/ref", 1));
            ledger.append(2, makeCell("leslie3d/ref", 0));
            ledger.append(2, makeCell("leslie3d/ref", 0)); // duplicate
            ledger.appendDaemonRound(makeDaemonRound(0),
                                     makeCheckpoint(1));
            ledger.appendDaemonRound(makeDaemonRound(1),
                                     makeCheckpoint(2));
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
        const uint64_t torn0 =
            counterValue("ledger.torn_tail_truncations");
        {
            RunLedger reopened(path, "test");
            reopened.open(header);
            // Header + 3 cells + 2 x (round + checkpoint) + the two
            // hostile whole frames; a version-2 cell is 3 runs +
            // commit.
            const uint64_t cell_frames = version >= 3 ? 1u : 4u;
            EXPECT_EQ(counterValue("ledger.replay_frames") - frames0,
                      1u + 3u * cell_frames + 2u * 2u + 2u);
            EXPECT_EQ(counterValue("ledger.replay_skipped") - skipped0,
                      2u);
            EXPECT_EQ(
                counterValue("ledger.torn_tail_truncations") - torn0,
                1u);
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
    // Bit-exact rates are what make a restored supervisor take the
    // same decisions as the uninterrupted one.
    EXPECT_EQ(got.supervisor, state.supervisor);
}

TEST(LedgerCodec, EveryStrictPrefixOfEveryRecordIsSkipped)
{
    // Each record kind's payload cut at every length short of whole,
    // each cut framed with a valid checksum so it reaches the
    // decoder: every cut is a malformed record, skipped and counted,
    // and none leaves a cell or a daemon round behind.
    RunRecord run = makeRun("bwaves/ref", 2, 905, 1, true);
    run.effects.add(Effect::CE);
    run.uncorrectedBySite[sim::ErrorSite::Dram] = 2;
    CellCommit commit;
    commit.workloadId = "bwaves/ref";
    commit.core = 2;
    commit.runCount = 1;
    commit.chip = ChipRef{sim::ChipCorner::TSS, 9};
    CellMeasurement cell = makeCell("bwaves/ref", 2);
    cell.runs.front().uncorrectedBySite[sim::ErrorSite::Dram] = 2;
    struct Record
    {
        const char *what;
        uint32_t version; ///< of the file it is replayed in
        std::string payload;
    };
    const std::vector<Record> records = {
        {"run", 2, encodeRunRecord(run)},
        {"commit", 2, encodeCellCommit(commit)},
        {"cell", 3, encodeCell(7, cell)},
        {"daemon round", 3, encodeDaemonRound(makeDaemonRound(0))},
        {"supervisor", 3, encodeSupervisorCheckpoint(makeCheckpoint(1))}};
    const std::string path = "/tmp/vmargin_test_ledger_prefixes";
    for (const auto &[what, version, payload] : records) {
        SCOPED_TRACE(what);
        createLedgerFile(path, "h", version);
        std::vector<std::string> prefixes;
        for (size_t length = 0; length < payload.size(); ++length)
            prefixes.push_back(payload.substr(0, length));
        appendRawFrames(path, prefixes);

        const uint64_t skipped_before =
            counterValue("ledger.replay_skipped");
        RunLedger reopened(path, "test");
        ::testing::internal::CaptureStderr();
        reopened.open("h");
        const std::string warnings =
            ::testing::internal::GetCapturedStderr();
        EXPECT_EQ(counterValue("ledger.replay_skipped") - skipped_before,
                  prefixes.size());
        EXPECT_NE(warnings.find("malformed record"), std::string::npos);
        EXPECT_EQ(reopened.size(), 0u);
        EXPECT_TRUE(reopened.daemonRounds().empty());
    }
    std::remove(path.c_str());
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

TEST(RunLedger, ImpossibleDaemonCodesAreRefused)
{
    // Checksum-valid round + checkpoint pairs carrying a value no
    // session writes. Each is a malformed record: skipped, counted,
    // and it poisons the daemon tail, so the rounds before it are
    // kept and it and everything after it re-run. Resuming one
    // instead would, e.g., pin the daemon at nominal for the rest of
    // its session behind a clamp code no report can name, or, with a
    // guard of -100, undervolt 100 steps below the governor's
    // decision.
    const std::string path = "/tmp/vmargin_test_ledger_codes";
    // A posture core entry: id, quarantine byte, 4 rates, 4 counts
    // and the clean-in-quarantine count.
    constexpr size_t kCoreEntryBytes = 4 + 1 + 4 * 8 + 4 * 8 + 4;
    const std::string good_round = encodeDaemonRound(makeDaemonRound(2));
    const auto checkpointWith = [](auto edit) {
        SupervisorCheckpoint state = makeCheckpoint(3);
        edit(state.supervisor);
        return encodeSupervisorCheckpoint(state);
    };
    struct Case
    {
        const char *what;
        std::string round;
        std::string checkpoint;
    };
    std::vector<Case> cases;
    {
        DaemonRoundRecord round = makeDaemonRound(2);
        round.fallbackReason = 3;
        cases.push_back({"fallback reason past the last",
                         encodeDaemonRound(round),
                         encodeSupervisorCheckpoint(makeCheckpoint(3))});
    }
    // The round's flag byte follows the kind byte, the round, the
    // voltage and the two energies.
    constexpr size_t kRoundFlagsAt = 1 + 4 + 4 + 8 + 8;
    for (const int bit : {5, 7}) {
        std::string round = good_round;
        round[kRoundFlagsAt] =
            static_cast<char>(round[kRoundFlagsAt] | (1 << bit));
        cases.push_back({bit == 5 ? "round flag bit 5" : "round flag bit 7",
                         round,
                         encodeSupervisorCheckpoint(makeCheckpoint(3))});
    }
    cases.push_back(
        {"clamp reason past the last", good_round,
         checkpointWith([](SupervisorPosture &posture) {
             posture.clampReason = static_cast<ClampReason>(7);
         })});
    {
        std::string checkpoint =
            encodeSupervisorCheckpoint(makeCheckpoint(3));
        checkpoint[checkpoint.size() - kCoreEntryBytes + 4] = 5;
        cases.push_back({"quarantine byte 5", good_round, checkpoint});
    }
    cases.push_back({"repeated core id", good_round,
                     checkpointWith([](SupervisorPosture &posture) {
                         posture.cores[1].core = posture.cores[0].core;
                     })});
    cases.push_back({"descending core ids", good_round,
                     checkpointWith([](SupervisorPosture &posture) {
                         posture.cores[0].core = 8;
                     })});
    cases.push_back({"core id outside CoreId", good_round,
                     checkpointWith([](SupervisorPosture &posture) {
                         posture.cores[0].core = -1; // 0xffffffff
                     })});
    {
        DaemonRoundRecord round = makeDaemonRound(2);
        round.guardSteps = -1;
        cases.push_back({"round guard -1", encodeDaemonRound(round),
                         encodeSupervisorCheckpoint(makeCheckpoint(3))});
    }
    cases.push_back({"guard -100", good_round,
                     checkpointWith([](SupervisorPosture &posture) {
                         posture.guardSteps = -100;
                     })});
    cases.push_back({"peak below the guard", good_round,
                     checkpointWith([](SupervisorPosture &posture) {
                         posture.peakGuardSteps = posture.guardSteps - 1;
                     })});
    cases.push_back({"crash round not yet served", good_round,
                     checkpointWith([](SupervisorPosture &posture) {
                         posture.recentCrashRounds.push_back(3);
                     })});
    cases.push_back({"negative rate", good_round,
                     checkpointWith([](SupervisorPosture &posture) {
                         posture.cores[1].ueRate = -0.125;
                     })});
    cases.push_back({"NaN rate", good_round,
                     checkpointWith([](SupervisorPosture &posture) {
                         posture.cores[0].crashRate =
                             std::numeric_limits<double>::quiet_NaN();
                     })});

    for (const Case &bad : cases) {
        SCOPED_TRACE(bad.what);
        std::remove(path.c_str());
        {
            RunLedger ledger(path, "test");
            ledger.open("daemon-h");
            for (int round = 0; round < 2; ++round)
                ledger.appendDaemonRound(makeDaemonRound(round),
                                         makeCheckpoint(round + 1));
        }
        // The bad pair as round 2, then well-formed rounds 2 and 3.
        appendRawFrames(
            path, {bad.round, bad.checkpoint, good_round,
                   encodeSupervisorCheckpoint(makeCheckpoint(3)),
                   encodeDaemonRound(makeDaemonRound(3)),
                   encodeSupervisorCheckpoint(makeCheckpoint(4))});

        const uint64_t skipped_before =
            counterValue("ledger.replay_skipped");
        RunLedger reopened(path, "test");
        ::testing::internal::CaptureStderr();
        reopened.open("daemon-h");
        const std::string warnings =
            ::testing::internal::GetCapturedStderr();
        EXPECT_EQ(counterValue("ledger.replay_skipped") - skipped_before,
                  1u);
        EXPECT_NE(warnings.find("malformed record"), std::string::npos);
        // Every case is checked, also after one fails.
        EXPECT_EQ(reopened.daemonRounds().size(), 2u)
            << "only the rounds before the bad frame are kept";
        if (reopened.daemonRounds().size() > 1) {
            EXPECT_EQ(reopened.daemonRounds()[1].round.round, 1);
        }
    }
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

TEST(RunLedgerDeath, AppendPanicsOnACellNoVersionReplays)
{
    // A version-3 cell frame holds one workload id, core and
    // frequency for all its runs; a version-2 replay refuses a cell
    // whose runs are of another workload or core. So the writer of
    // either version panics on such a cell, naming the field, and on
    // a negative core.
    const std::string path = "/tmp/vmargin_test_ledger_bad_cell";
    CellMeasurement other_id = makeCell("bwaves/ref", 2);
    other_id.runs[1].key.workloadId = "mcf/ref";
    CellMeasurement other_core = makeCell("bwaves/ref", 2);
    other_core.runs[2].key.core = 3;
    CellMeasurement other_frequency = makeCell("bwaves/ref", 2);
    other_frequency.runs[1].key.frequency = 1200;
    for (const uint32_t version : {3u, 2u}) {
        SCOPED_TRACE("version " + std::to_string(version));
        createLedgerFile(path, "h", version);
        RunLedger ledger(path, "test");
        ledger.open("h");
        EXPECT_DEATH(ledger.append(1, other_id), "another workload id");
        EXPECT_DEATH(ledger.append(1, other_core), "another core");
        EXPECT_DEATH(ledger.append(1, other_frequency),
                     "another frequency");
        EXPECT_DEATH(ledger.append(1, makeCell("bwaves/ref", -1)),
                     "negative core -1");
    }
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

    const RegionAnalysis *crashy = view.analysis("b", 1);
    ASSERT_NE(crashy, nullptr);
    EXPECT_EQ(crashy->regions.at(925), Region::Crash);
    EXPECT_EQ(crashy->regions.at(930), Region::Safe);
    EXPECT_EQ(crashy->vmin, 930);
    EXPECT_GT(crashy->severityByVoltage.at(925), 0.0);
    EXPECT_EQ(view.analysis("a", 0)->severityByVoltage.at(925), 0.0);
    EXPECT_EQ(view.analysis("missing", 9), nullptr);

    const auto cells = view.cellResults();
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].workloadId, "b");
    EXPECT_EQ(cells[1].workloadId, "a");
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
            for (int cell = 71; cell >= 0; --cell)
                EXPECT_NE(view.analysis("wl" + std::to_string(cell % 9),
                                        static_cast<CoreId>(cell / 9)),
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

/** The analysis of one cell, derived by a reference that keeps every
 *  run's effects by voltage, as the stream delivered them, and sums
 *  their weights itself. */
RegionAnalysis
referenceAnalysis(const std::map<MilliVolt, std::vector<EffectSet>> &runs,
                  const SeverityWeights &weights)
{
    RegionAnalysis analysis;
    for (const auto &[voltage, sets] : runs) {
        bool abnormal = false;
        bool crash = false;
        double sum = 0.0;
        for (const EffectSet &set : sets) {
            abnormal = abnormal || !set.normal();
            crash = crash || set.has(Effect::SC);
            double run = 0.0;
            if (set.has(Effect::SDC))
                run += weights.sdc;
            if (set.has(Effect::CE))
                run += weights.ce;
            if (set.has(Effect::UE))
                run += weights.ue;
            if (set.has(Effect::AC))
                run += weights.ac;
            if (set.has(Effect::SC))
                run += weights.sc;
            sum += run;
        }
        analysis.regions[voltage] = crash      ? Region::Crash
                                    : abnormal ? Region::Unsafe
                                               : Region::Safe;
        analysis.severityByVoltage[voltage] =
            sum / static_cast<double>(sets.size());
        if (crash)
            analysis.highestCrashVoltage =
                std::max(analysis.highestCrashVoltage, voltage);
        if (abnormal)
            analysis.highestAbnormalVoltage =
                std::max(analysis.highestAbnormalVoltage, voltage);
    }
    for (auto it = analysis.regions.rbegin();
         it != analysis.regions.rend() && it->second == Region::Safe;
         ++it)
        analysis.vmin = it->first;
    if (analysis.vmin == 0) // abnormal at the top: censored there
        analysis.vmin = analysis.regions.rbegin()->first;
    return analysis;
}

TEST(LedgerView, StreamedTalliesMatchAPerRunReference)
{
    // Weights whose sums depend on the order they are added in: the
    // view must sum each voltage's runs in stream order.
    SeverityWeights weights;
    weights.sdc = 0.1;
    weights.ce = 0.7;
    weights.ue = 1.0 / 3.0;
    weights.ac = 0.3;
    weights.sc = 2.9;

    struct Cell
    {
        std::string workload;
        CoreId core;
        MilliVolt onset; ///< effects start below this voltage
    };
    util::Rng rng(20171014);
    std::vector<Cell> cells;
    for (int i = 0; i < 14; ++i)
        cells.push_back({"wl" + std::to_string(i % 5),
                         static_cast<CoreId>(i / 5 * 3 + i % 2),
                         // A few cells are abnormal at the top.
                         static_cast<MilliVolt>(
                             i % 6 == 4 ? 940 : rng.uniformInt(885, 925))});
    const auto randomEffects = [&](MilliVolt voltage, MilliVolt onset) {
        EffectSet set;
        if (voltage >= onset || rng.uniform() < 0.3)
            return set;
        for (Effect e : {Effect::SDC, Effect::CE, Effect::UE, Effect::AC,
                         Effect::SC})
            if (rng.uniform() < 0.35)
                set.add(e);
        return set;
    };

    // Four campaigns; in each, every cell sweeps 930 -> 880 mV with
    // one to three runs per level, and the cells' runs interleave in
    // random chunks, some splitting a voltage level.
    std::vector<RunRecord> stream;
    for (uint32_t campaign = 0; campaign < 4; ++campaign) {
        std::vector<std::vector<RunRecord>> pending(cells.size());
        for (size_t c = 0; c < cells.size(); ++c)
            for (MilliVolt v = 930; v >= 880; v -= 5)
                for (int64_t i = rng.uniformInt(1, 3); i > 0; --i) {
                    RunRecord run = makeRun(
                        cells[c].workload, cells[c].core, v,
                        static_cast<uint32_t>(i));
                    run.key.campaign = campaign;
                    run.effects = randomEffects(v, cells[c].onset);
                    pending[c].push_back(std::move(run));
                }
        std::vector<size_t> next(cells.size(), 0);
        for (size_t left = cells.size(); left > 0;) {
            const auto c = static_cast<size_t>(rng.uniformInt(
                0, static_cast<int64_t>(cells.size()) - 1));
            if (next[c] == pending[c].size())
                continue;
            for (int64_t n = rng.uniformInt(1, 6);
                 n > 0 && next[c] < pending[c].size(); --n)
                stream.push_back(pending[c][next[c]++]);
            if (next[c] == pending[c].size())
                --left;
        }
    }

    // The reference: cells in first-seen order, each voltage's
    // effects in stream order.
    std::vector<std::pair<std::string, CoreId>> order;
    std::map<std::pair<std::string, CoreId>,
             std::map<MilliVolt, std::vector<EffectSet>>>
        byCell;
    for (const RunRecord &run : stream) {
        const auto key = std::pair(run.key.workloadId, run.key.core);
        if (!byCell.count(key))
            order.push_back(key);
        byCell[key][run.key.voltage].push_back(run.effects);
    }
    ASSERT_EQ(order.size(), cells.size());

    // The weights do tell the orders apart: summing per effect
    // (W_e times the runs showing e) misses some reference bits.
    size_t orderSensitive = 0;
    for (const auto &[key, runs] : byCell)
        for (const auto &[voltage, sets] : runs) {
            double perEffect = 0.0;
            for (Effect e : {Effect::SDC, Effect::CE, Effect::UE,
                             Effect::AC, Effect::SC}) {
                size_t count = 0;
                for (const EffectSet &set : sets)
                    count += set.has(e) ? 1 : 0;
                perEffect += weights.weight(e) * static_cast<double>(count);
            }
            perEffect /= static_cast<double>(sets.size());
            if (perEffect !=
                referenceAnalysis(runs, weights).severityByVoltage.at(voltage))
                ++orderSensitive;
        }
    EXPECT_GT(orderSensitive, 0u);

    // Stream through add() and addAll() batches of random length.
    const auto streamInto = [&](LedgerView &view, size_t begin,
                                size_t end) {
        while (begin < end) {
            const auto n = std::min<size_t>(
                end - begin, static_cast<size_t>(rng.uniformInt(1, 40)));
            if (n == 1)
                view.add(stream[begin]);
            else
                view.addAll(std::span(stream).subspan(begin, n));
            begin += n;
        }
    };
    // workers > 0: deriveAll, also once half way so later runs must
    // reopen derived cells; 0: lazily, in reverse cell order.
    for (const int workers : {0, 1, 8}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        LedgerView view(weights);
        if (workers > 0) {
            streamInto(view, 0, stream.size() / 2);
            view.deriveAll(workers);
            streamInto(view, stream.size() / 2, stream.size());
            view.deriveAll(workers);
        } else {
            streamInto(view, 0, stream.size());
            for (auto it = order.rbegin(); it != order.rend(); ++it)
                ASSERT_NE(view.analysis(it->first, it->second), nullptr);
        }
        const std::vector<CellResult> results = view.cellResults();
        ASSERT_EQ(results.size(), order.size());
        for (size_t i = 0; i < results.size(); ++i) {
            SCOPED_TRACE("cell " + std::to_string(i));
            EXPECT_EQ(results[i].workloadId, order[i].first);
            EXPECT_EQ(results[i].core, order[i].second);
            const RegionAnalysis want =
                referenceAnalysis(byCell.at(order[i]), weights);
            const RegionAnalysis &got = results[i].analysis;
            EXPECT_EQ(got.regions, want.regions);
            EXPECT_EQ(got.severityByVoltage, want.severityByVoltage);
            EXPECT_EQ(got.vmin, want.vmin);
            EXPECT_EQ(got.highestCrashVoltage, want.highestCrashVoltage);
            EXPECT_EQ(got.highestAbnormalVoltage,
                      want.highestAbnormalVoltage);
        }
    }
}

} // namespace
} // namespace vmargin
