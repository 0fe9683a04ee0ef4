/**
 * @file
 * Randomized replay oracle for RunLedger::open(). Seeded byte flips,
 * truncations and splices of four golden ledgers — a journal of
 * cells with unequal run counts across configuration hashes and
 * chips, one that interleaves cells with daemon rounds and their
 * supervisor checkpoints, a cell cache, and a version-2 journal
 * written by an earlier build (one frame per run plus a commit
 * frame) — are each replayed on the calling thread and on pools of
 * 1, 2 and 8 workers. Every replay must keep the same cells and
 * rounds, book the same skips and torn tails, cut the file to the
 * same length and print the same warnings; and what it keeps must
 * be what the damage leaves of the original.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/cellcache.hh"
#include "core/ledger.hh"
#include "ledger_files.hh"
#include "obs/metrics.hh"
#include "util/rng.hh"
#include "util/threadpool.hh"

namespace vmargin
{
namespace
{

using ledger_files::encoded;

constexpr const char *kHeader = "oracle-h";

uint64_t
counterValue(const char *name)
{
    return obs::Registry::global().counter(name).value();
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

/** Cell @p index of a golden journal: @p runs runs whose every
 *  field depends on the cell and the run, under a unique id. */
CellMeasurement
goldenCell(size_t index, size_t runs)
{
    const auto i = static_cast<uint32_t>(index);
    CellMeasurement cell;
    cell.chip = ChipRef{static_cast<sim::ChipCorner>(i % 3), i % 4};
    cell.workloadId = "w" + std::to_string(index) + "/ref";
    cell.core = static_cast<CoreId>(i % 8);
    cell.watchdogInterventions = i;
    cell.telemetry.retries = 2 * i + 1;
    cell.telemetry.backoffEvents = i % 3;
    cell.telemetry.backoffUsTotal = 1000 + i;
    cell.telemetry.watchdogRetries = i % 2;
    cell.telemetry.lostMeasurements = i % 5;
    for (uint32_t r = 0; r < runs; ++r) {
        RunRecord &run = cell.runs.emplace_back();
        run.key.workloadId = cell.workloadId;
        run.key.core = cell.core;
        run.key.voltage = static_cast<MilliVolt>(940 - 5 * r);
        run.key.frequency = 2400;
        run.key.campaign = r % 2;
        run.key.runIndex = r;
        if ((i + r) % 3 == 0)
            run.effects.add(Effect::CE);
        if ((i + r) % 4 == 1) {
            run.effects.add(Effect::SDC);
            run.sdcEvents = r + 1;
        }
        if (r + 1 == runs && i % 2 == 0) {
            run.effects.add(Effect::SC);
            run.exitCode = 139;
        }
        run.correctedErrors = i + r;
        run.uncorrectedErrors = r % 2;
        run.seconds = 1.25 + 0.001 * (i + r);
        run.avgIpc = 1.618033988749895 + r;
        run.activityFactor = 0.5772156649015329 / (i + 1);
        run.correctedBySite[sim::ErrorSite::L2Cache] = i + r + 1;
        if (r % 2 == 1)
            run.uncorrectedBySite[sim::ErrorSite::Dram] = r;
    }
    return cell;
}

DaemonRoundRecord
goldenRound(int round)
{
    DaemonRoundRecord record;
    record.round = round;
    record.voltage = 900 - 5 * round;
    record.energyJoule = 1.5 + 0.001953125 * round;
    record.nominalJoule = 2.25 + 0.001953125 * round;
    record.anyAbnormal = round % 2 == 1;
    record.crashed = round == 3;
    record.reexecutions = round % 2;
    record.guardSteps = round;
    return record;
}

SupervisorCheckpoint
goldenCheckpoint(int rounds_completed)
{
    SupervisorCheckpoint state;
    state.roundsCompleted = static_cast<uint32_t>(rounds_completed);
    state.watchdogResets = static_cast<uint64_t>(rounds_completed);
    state.sensorSample = 51.0 + 0.0009765625 * rounds_completed;
    state.supervisorEnabled = true;
    state.supervisor.guardSteps = rounds_completed % 3;
    state.supervisor.peakGuardSteps = 2;
    // A crash window holds rounds already served.
    state.supervisor.recentCrashRounds = {
        static_cast<uint32_t>(rounds_completed - 1)};
    SupervisorPosture::CoreState core;
    core.core = 4;
    core.ceRate = 0.125 * rounds_completed;
    state.supervisor.cores.push_back(core);
    return state;
}

/** Every field of a kept cell: its key and commit fields, then each
 *  run, all through the codec so nothing is left out. */
std::string
describe(const RunLedger::Entry &entry)
{
    const CellMeasurement &cell = entry.cell;
    CellCommit commit;
    commit.configHash = entry.configHash;
    commit.chip = cell.chip;
    commit.workloadId = cell.workloadId;
    commit.core = cell.core;
    commit.runCount = static_cast<uint32_t>(cell.runs.size());
    commit.watchdogInterventions = cell.watchdogInterventions;
    commit.telemetry = cell.telemetry;
    std::string out;
    appendFrame(out, encoded(encodeCellCommitInto, commit, 2u));
    for (const RunRecord &run : cell.runs)
        appendFrame(out, encoded(encodeRunRecordInto, run));
    return out;
}

std::string
describe(const RunLedger::DaemonRoundEntry &entry)
{
    std::string out;
    appendFrame(out, encoded(encodeDaemonRoundInto, entry.round));
    appendFrame(out, encoded(encodeSupervisorCheckpointInto, entry.state));
    return out;
}

/** A kept cell's whole key, printable: its workload id, core, chip
 *  and configuration hash. */
std::string
cellKey(const RunLedger::Entry &entry)
{
    return entry.cell.workloadId + " core " +
           std::to_string(entry.cell.core) + " on " +
           entry.cell.chip.name() + " hash " +
           std::to_string(entry.configHash);
}

/** What one replay kept, booked, cut and printed. */
struct Replayed
{
    std::vector<std::string> cellIds; ///< kept cells' keys (cellKey)
    std::vector<std::string> cells;   ///< describe() of each
    std::vector<std::string> rounds;  ///< describe() of each
    uint64_t skipped = 0;
    uint64_t tornTails = 0;
    uintmax_t fileBytes = 0;
    std::string warnings;
};

Replayed
replay(const std::string &path, const std::string &header,
       const std::string &bytes, util::ThreadPool *pool)
{
    writeBytes(path, bytes);
    Replayed out;
    const uint64_t skipped0 = counterValue("ledger.replay_skipped");
    const uint64_t torn0 = counterValue("ledger.torn_tail_truncations");
    RunLedger ledger(path, "oracle");
    ::testing::internal::CaptureStderr();
    ledger.open(header, "", {}, pool);
    out.warnings = ::testing::internal::GetCapturedStderr();
    out.skipped = counterValue("ledger.replay_skipped") - skipped0;
    out.tornTails =
        counterValue("ledger.torn_tail_truncations") - torn0;
    out.fileBytes = std::filesystem::file_size(path);
    for (const RunLedger::Entry &entry : ledger.entries()) {
        out.cellIds.push_back(cellKey(entry));
        out.cells.push_back(describe(entry));
    }
    for (const auto &entry : ledger.daemonRounds())
        out.rounds.push_back(describe(entry));
    return out;
}

/** A golden journal and where each of its commit units lies. */
struct Golden
{
    std::string header; ///< the binding header it is opened with
    std::string bytes;
    size_t headerEnd = 0; ///< offset one past the header frame
    /** Each commit unit: [begin, end) bytes, and whether it is a
     *  cell (else a daemon round). */
    struct Unit
    {
        size_t begin = 0;
        size_t end = 0;
        bool cell = false;
    };
    std::vector<Unit> units;
    /** Offsets of the frame length fields: a flip there moves the
     *  framing, one anywhere else keeps it. */
    std::vector<size_t> frameStarts;
    /** The whole replay, and the cells by id. */
    Replayed pristine;
    std::map<std::string, std::string> cellById;
};

/** Index the ledger @p bytes and replay them once, undamaged. */
Golden
indexGolden(const std::string &path, std::string bytes)
{
    Golden golden;
    golden.header = ledger_files::ledgerHeaderOf(bytes).second;
    golden.bytes = std::move(bytes);
    FrameCursor cursor(golden.bytes, 4);
    std::string_view payload;
    uint32_t checksum = 0;
    size_t begin = 4;
    size_t unit_begin = 0;
    while (cursor.next(payload, checksum) == FrameCursor::Status::Frame) {
        golden.frameStarts.push_back(begin);
        if (golden.headerEnd == 0) {
            golden.headerEnd = unit_begin = cursor.offset();
        } else if (payload[0] == 2 || payload[0] == 4 ||
                   payload[0] == 5) {
            // A commit, a supervisor checkpoint or a whole cell
            // closes its unit.
            golden.units.push_back({unit_begin, cursor.offset(),
                                    payload[0] == 2 || payload[0] == 5});
            unit_begin = cursor.offset();
        }
        begin = cursor.offset();
    }
    golden.pristine = replay(path, golden.header, golden.bytes, nullptr);
    for (size_t i = 0; i < golden.pristine.cells.size(); ++i)
        golden.cellById[golden.pristine.cellIds[i]] =
            golden.pristine.cells[i];
    return golden;
}

/** Write a journal of @p cell_runs cells (run counts), a daemon
 *  round after each cell when @p with_rounds, and index it. */
Golden
makeGolden(const std::string &path, const std::vector<size_t> &cell_runs,
           bool with_rounds)
{
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "oracle");
        ledger.open(kHeader);
        for (size_t c = 0; c < cell_runs.size(); ++c) {
            ledger.append(1 + c % 2, goldenCell(c, cell_runs[c]));
            if (with_rounds)
                ledger.appendDaemonRound(
                    goldenRound(static_cast<int>(c)),
                    goldenCheckpoint(static_cast<int>(c) + 1));
        }
    }
    return indexGolden(path, readBytes(path));
}

/** One damaged copy of a golden journal. */
struct Damage
{
    std::string what;
    std::string bytes;
    size_t firstDamaged = 0;      ///< no byte before it differs
    std::vector<size_t> flipped;  ///< flipped offsets (flips only)
    bool keepsFraming = false;    ///< flips outside length fields
    std::optional<size_t> cut;    ///< truncation offset
};

Damage
damage(const Golden &golden, util::Rng &rng, int kind)
{
    const std::string &pristine = golden.bytes;
    const auto offset = [&](size_t lo, size_t hi) {
        return static_cast<size_t>(rng.uniformInt(
            static_cast<int64_t>(lo), static_cast<int64_t>(hi) - 1));
    };
    Damage d;
    d.bytes = pristine;
    if (kind == 0) {
        d.what = "flip";
        d.keepsFraming = true;
        const auto flips = rng.uniformInt(1, 3);
        for (int64_t i = 0; i < flips; ++i) {
            const size_t at = offset(golden.headerEnd, pristine.size());
            d.bytes[at] = static_cast<char>(
                d.bytes[at] ^ static_cast<char>(rng.uniformInt(1, 255)));
            d.flipped.push_back(at);
            for (const size_t start : golden.frameStarts)
                if (at >= start && at < start + 4)
                    d.keepsFraming = false;
        }
        // Two flips of one byte may cancel: damage is where the
        // bytes differ.
        d.flipped.erase(
            std::remove_if(d.flipped.begin(), d.flipped.end(),
                           [&](size_t at) {
                               return d.bytes[at] == pristine[at];
                           }),
            d.flipped.end());
        if (d.flipped.empty())
            d.firstDamaged = pristine.size();
        else
            d.firstDamaged =
                *std::min_element(d.flipped.begin(), d.flipped.end());
    } else if (kind == 1) {
        d.what = "truncate";
        const size_t cut = offset(golden.headerEnd, pristine.size());
        d.bytes.resize(cut);
        d.cut = cut;
        d.firstDamaged = cut;
    } else {
        // Splice: a copied range of the file inserted elsewhere, or
        // a range removed. Whole units some of the time, so the
        // framing holds and the copies are intact duplicates.
        const bool whole_units = rng.uniformInt(0, 1) == 1;
        size_t from = 0;
        size_t to = 0;
        size_t at = 0;
        if (whole_units) {
            const auto unit = [&] {
                return golden.units[offset(0, golden.units.size())];
            };
            from = unit().begin;
            to = unit().end;
            if (from > to)
                std::swap(from, to);
            at = unit().end;
        } else {
            from = offset(golden.headerEnd, pristine.size());
            to = offset(from, pristine.size() + 1);
            at = offset(golden.headerEnd, pristine.size() + 1);
        }
        if (rng.uniformInt(0, 2) == 0) {
            d.what = "splice out";
            d.bytes.erase(from, to - from);
            d.firstDamaged = to > from ? from : pristine.size();
        } else {
            d.what = whole_units ? "splice in units" : "splice in";
            d.bytes.insert(at, pristine.substr(from, to - from));
            d.firstDamaged = to > from ? at : pristine.size();
        }
    }
    return d;
}

/** Check what @p got kept of @p golden against @p d. */
void
checkAgainstOriginal(const Golden &golden, const Damage &d,
                     const Replayed &got)
{
    const Replayed &pristine = golden.pristine;
    // Every kept cell is an original cell, whole; every round is the
    // original round of its index.
    std::map<std::string, bool> kept;
    for (size_t i = 0; i < got.cells.size(); ++i) {
        const auto it = golden.cellById.find(got.cellIds[i]);
        ASSERT_NE(it, golden.cellById.end()) << got.cellIds[i];
        if (d.keepsFraming || d.cut || d.what == "splice in units") {
            EXPECT_EQ(got.cells[i], it->second) << got.cellIds[i];
        }
        kept[got.cellIds[i]] = true;
    }
    ASSERT_LE(got.rounds.size(), pristine.rounds.size());
    for (size_t r = 0; r < got.rounds.size(); ++r)
        EXPECT_EQ(got.rounds[r], pristine.rounds[r]) << "round " << r;

    // The committed prefix before the first damaged byte is kept.
    size_t cell = 0;
    size_t round = 0;
    for (const Golden::Unit &unit : golden.units) {
        const bool before = unit.end <= d.firstDamaged;
        if (unit.cell) {
            if (before) {
                EXPECT_TRUE(kept[pristine.cellIds[cell]])
                    << pristine.cellIds[cell] << " precedes the damage";
            }
            ++cell;
        } else {
            if (before) {
                EXPECT_GT(got.rounds.size(), round)
                    << "round " << round << " precedes the damage";
            }
            ++round;
        }
    }

    if (d.cut) {
        // A cut keeps exactly the units it leaves whole, and the file
        // ends on the last of them.
        size_t keep_cells = 0;
        size_t keep_rounds = 0;
        size_t end = golden.headerEnd;
        for (const Golden::Unit &unit : golden.units)
            if (unit.end <= *d.cut) {
                (unit.cell ? keep_cells : keep_rounds) += 1;
                end = unit.end;
            }
        EXPECT_EQ(got.cells.size(), keep_cells);
        EXPECT_EQ(got.rounds.size(), keep_rounds);
        EXPECT_EQ(got.fileBytes, end);
    }
    if (d.keepsFraming) {
        // The damaged cells are refused, and at most they: a cell
        // with a flipped byte is refused; one with no flipped byte
        // in it, in the cell before it or in the daemon units
        // between them is kept. (A lost frame with no runs pending
        // may have been the next cell's first run, so the next cell
        // may be refused too.)
        std::vector<bool> flipped(golden.units.size(), false);
        for (const size_t at : d.flipped)
            for (size_t u = 0; u < golden.units.size(); ++u)
                if (at >= golden.units[u].begin &&
                    at < golden.units[u].end)
                    flipped[u] = true;
        size_t c = 0;
        bool flipped_before = false; // since the last cell began
        for (size_t u = 0; u < golden.units.size(); ++u) {
            if (!golden.units[u].cell) {
                flipped_before = flipped_before || flipped[u];
                continue;
            }
            const std::string &id = pristine.cellIds[c++];
            if (flipped[u]) {
                EXPECT_FALSE(kept[id]) << id << " has a flipped byte";
            } else if (!flipped_before) {
                EXPECT_TRUE(kept[id]) << id << " is undamaged";
            }
            flipped_before = flipped[u];
        }
    }
}

/** Replay seeded damaged copies of @p golden, which keeps @p cells
 *  cells and @p rounds daemon rounds undamaged. */
void
runOracle(const std::string &path, const Golden &golden, size_t cells,
          size_t rounds, Seed seed)
{
    ASSERT_EQ(golden.pristine.cells.size(), cells);
    ASSERT_EQ(golden.cellById.size(), cells) << "cell keys must differ";
    ASSERT_EQ(golden.pristine.rounds.size(), rounds);
    ASSERT_EQ(golden.pristine.skipped, 0u);
    ASSERT_TRUE(golden.pristine.warnings.empty());

    util::ThreadPool one(1);
    util::ThreadPool two(2);
    util::ThreadPool eight(8);
    const std::vector<std::pair<const char *, util::ThreadPool *>>
        pools = {{"1 worker", &one},
                 {"2 workers", &two},
                 {"8 workers", &eight}};
    util::Rng rng(seed);
    constexpr int kInputs = 150;
    for (int input = 0; input < kInputs; ++input) {
        const Damage d = damage(golden, rng, input % 3);
        SCOPED_TRACE("input " + std::to_string(input) + ": " + d.what);
        const Replayed serial =
            replay(path, golden.header, d.bytes, nullptr);
        for (const auto &[name, pool] : pools) {
            SCOPED_TRACE(name);
            const Replayed pooled =
                replay(path, golden.header, d.bytes, pool);
            EXPECT_EQ(pooled.cellIds, serial.cellIds);
            EXPECT_EQ(pooled.cells, serial.cells);
            EXPECT_EQ(pooled.rounds, serial.rounds);
            EXPECT_EQ(pooled.skipped, serial.skipped);
            EXPECT_EQ(pooled.tornTails, serial.tornTails);
            EXPECT_EQ(pooled.fileBytes, serial.fileBytes);
            EXPECT_EQ(pooled.warnings, serial.warnings);
        }
        checkAgainstOriginal(golden, d, serial);
        if (::testing::Test::HasFailure())
            break; // one failing input says enough
    }
    std::remove(path.c_str());
}

TEST(RunLedgerReplay, DamagedCellJournalReplaysAlikeOnAnyPool)
{
    const std::string path = "/tmp/vmargin_test_replay_oracle_cells";
    const std::vector<size_t> runs = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8};
    runOracle(path, makeGolden(path, runs, false), runs.size(), 0, 28);
}

TEST(RunLedgerReplay, DamagedDaemonJournalReplaysAlikeOnAnyPool)
{
    const std::string path = "/tmp/vmargin_test_replay_oracle_daemon";
    const std::vector<size_t> runs = {2, 7, 1, 8, 2, 8};
    runOracle(path, makeGolden(path, runs, true), runs.size(),
              runs.size(), 29);
}

TEST(RunLedgerReplay, DamagedCellCacheReplaysAlikeOnAnyPool)
{
    // A cell cache keys every cell by its configuration hash (never
    // 0) under the cache's own binding header.
    const std::string path = "/tmp/vmargin_test_replay_oracle_cache";
    const std::vector<size_t> runs = {4, 2, 7, 1, 3, 6, 2, 5};
    std::remove(path.c_str());
    {
        CellResultCache cache(path);
        cache.open();
        for (size_t c = 0; c < runs.size(); ++c)
            cache.put(0x9e3779b97f4a7c15ull * (c % 3 + 1),
                      goldenCell(c, runs[c]));
    }
    runOracle(path, indexGolden(path, readBytes(path)), runs.size(), 0,
              30);
}

TEST(RunLedgerReplay, DamagedVersion2JournalReplaysAlikeOnAnyPool)
{
    // ResultGolden's 8-cell journal as the previous ledger version
    // wrote it.
    const std::string path = "/tmp/vmargin_test_replay_oracle_v2";
    const std::string bytes =
        readBytes(VMARGIN_TEST_DATA_DIR "/result_golden_v2.journal");
    ASSERT_EQ(ledger_files::ledgerHeaderOf(bytes).first, 2u);
    runOracle(path, indexGolden(path, bytes), 8, 0, 31);
}

} // namespace
} // namespace vmargin
