/**
 * @file
 * Crash-safety matrix for the buffered ledger writer: group-commit
 * batching semantics (batch content byte-identity, unflushed-tail
 * invisibility, interval trigger), kill/truncate at every frame
 * boundary and inside frames for both cell streams and daemon round
 * streams, torn-tail realignment on append-after-recovery, policy
 * validation fatals, and the executor-level proof that a batched
 * journal killed mid-batch resumes to a byte-identical report at
 * every worker count.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/framework.hh"
#include "core/ledger.hh"
#include "core/resultstore.hh"
#include "ledger_files.hh"
#include "obs/metrics.hh"
#include "sim/platform.hh"
#include "workloads/spec.hh"

namespace vmargin
{
namespace
{

/** Current value of an exact executor counter; tests read deltas. */
uint64_t
counterValue(const char *name)
{
    return obs::Registry::global().counter(name).value();
}

constexpr const char *kFromJournal = "executor.cells_from_journal";

RunRecord
makeRun(const std::string &workload, CoreId core, MilliVolt voltage,
        uint32_t run_index)
{
    RunRecord run;
    run.key.workloadId = workload;
    run.key.core = core;
    run.key.voltage = voltage;
    run.key.frequency = 2400;
    run.key.runIndex = run_index;
    run.seconds = 0.5 + 0.001 * voltage;
    run.avgIpc = 1.25;
    if (run_index == 2) {
        run.effects.add(Effect::CE);
        run.correctedErrors = 7;
        run.correctedBySite[sim::ErrorSite::L2Cache] = 7;
    }
    return run;
}

CellMeasurement
makeCell(const std::string &workload, CoreId core)
{
    CellMeasurement cell;
    cell.workloadId = workload;
    cell.core = core;
    cell.runs = {makeRun(workload, core, 930, 0),
                 makeRun(workload, core, 920, 1),
                 makeRun(workload, core, 910, 2)};
    cell.telemetry.retries = 2;
    return cell;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** Byte offsets one past every frame (header included), starting
 *  from the magic. */
std::vector<size_t>
frameBoundaries(const std::string &bytes)
{
    std::vector<size_t> boundaries;
    FrameCursor cursor(bytes, 4);
    std::string_view payload;
    uint32_t checksum = 0;
    while (cursor.next(payload, checksum) ==
           FrameCursor::Status::Frame)
        boundaries.push_back(cursor.offset());
    return boundaries;
}

TEST(LedgerWriteOptionsDeath, RejectsUnusablePolicies)
{
    LedgerWriteOptions zero_batch;
    zero_batch.flushEveryCells = 0;
    EXPECT_EXIT(zero_batch.validate("test"),
                ::testing::ExitedWithCode(1),
                "flushEveryCells must be >= 1, got 0");

    LedgerWriteOptions negative_interval;
    negative_interval.flushIntervalMs = -5;
    EXPECT_EXIT(negative_interval.validate("test"),
                ::testing::ExitedWithCode(1),
                "flushIntervalMs must be >= 0, got -5");
}

TEST(FrameworkFlushKnobs, ValidateAndMapToWriteOptions)
{
    FrameworkConfig config;
    config.flushEveryCells = 32;
    config.flushIntervalMs = 250;
    const LedgerWriteOptions options = config.writeOptions();
    EXPECT_EQ(options.flushEveryCells, 32);
    EXPECT_EQ(options.flushIntervalMs, 250);

    FrameworkConfig bad_batch;
    bad_batch.workloads = {wl::findWorkload("bwaves/ref")};
    bad_batch.cores = {0};
    bad_batch.flushEveryCells = 0;
    EXPECT_EXIT(bad_batch.validate(), ::testing::ExitedWithCode(1),
                "flush_every_cells must be >= 1 \\(got 0\\)");

    FrameworkConfig bad_interval;
    bad_interval.workloads = {wl::findWorkload("bwaves/ref")};
    bad_interval.cores = {0};
    bad_interval.flushIntervalMs = -1;
    EXPECT_EXIT(bad_interval.validate(),
                ::testing::ExitedWithCode(1),
                "flush_interval_ms must be >= 0 \\(got -1\\)");
}

TEST(FrameworkFlushKnobs, ParsedFromConfigFile)
{
    const std::string path = "/tmp/vmargin_test_flush_knobs.cfg";
    {
        std::ofstream out(path);
        out << "workloads = bwaves/ref\n"
            << "cores = 0\n"
            << "flush_every_cells = 16\n"
            << "flush_interval_ms = 100\n";
    }
    const FrameworkConfig config = FrameworkConfig::fromConfig(
        util::ConfigFile::fromFile(path));
    EXPECT_EQ(config.flushEveryCells, 16);
    EXPECT_EQ(config.flushIntervalMs, 100);
    std::remove(path.c_str());
}

TEST(LedgerWriter, BatchedFileIsByteIdenticalToPerCellFile)
{
    const std::string per_cell = "/tmp/vmargin_test_wr_percell";
    const std::string batched = "/tmp/vmargin_test_wr_batched";
    std::remove(per_cell.c_str());
    std::remove(batched.c_str());

    const std::vector<CellMeasurement> cells = {
        makeCell("bwaves/ref", 0), makeCell("mcf/ref", 2),
        makeCell("namd/ref", 4), makeCell("leslie3d/ref", 6),
        makeCell("soplex/ref", 1)};
    {
        RunLedger ledger(per_cell, "test");
        ledger.open("h");
        for (const auto &cell : cells)
            ledger.append(9, cell);
    }
    {
        LedgerWriteOptions options;
        options.flushEveryCells = 3;
        RunLedger ledger(batched, "test", options);
        ledger.open("h");
        for (const auto &cell : cells)
            ledger.append(9, cell);
    } // destructor drains the partial second batch
    EXPECT_EQ(readFile(per_cell), readFile(batched))
        << "batching must change flush timing only, never content";
    std::remove(per_cell.c_str());
    std::remove(batched.c_str());
}

TEST(LedgerWriter, UnflushedBatchInvisibleUntilFlush)
{
    const std::string path = "/tmp/vmargin_test_wr_unflushed";
    const std::string copy = "/tmp/vmargin_test_wr_unflushed_copy";
    std::remove(path.c_str());

    LedgerWriteOptions options;
    options.flushEveryCells = 4;
    RunLedger ledger(path, "test", options);
    ledger.open("h");
    const size_t prolog = readFile(path).size();
    ledger.append(1, makeCell("bwaves/ref", 0));
    ledger.append(1, makeCell("mcf/ref", 2));
    ledger.append(1, makeCell("namd/ref", 4));

    // A kill now loses the whole batch: on disk there is only the
    // prolog, and a reader sees zero cells.
    EXPECT_EQ(readFile(path).size(), prolog);
    writeFile(copy, readFile(path));
    {
        RunLedger reader(copy, "test");
        reader.open("h");
        EXPECT_EQ(reader.size(), 0u);
    }

    // The explicit durability barrier publishes all three.
    ledger.flush();
    writeFile(copy, readFile(path));
    RunLedger reader(copy, "test");
    reader.open("h");
    EXPECT_EQ(reader.size(), 3u);
    EXPECT_NE(reader.find(1, ChipRef{}, "namd/ref", 4), nullptr);
    std::remove(path.c_str());
    std::remove(copy.c_str());
}

TEST(LedgerWriter, FourthAppendFlushesTheBatchOfFour)
{
    const std::string path = "/tmp/vmargin_test_wr_batchfull";
    std::remove(path.c_str());
    LedgerWriteOptions options;
    options.flushEveryCells = 4;
    RunLedger ledger(path, "test", options);
    ledger.open("h");
    const size_t prolog = readFile(path).size();
    ledger.append(1, makeCell("bwaves/ref", 0));
    ledger.append(1, makeCell("mcf/ref", 2));
    ledger.append(1, makeCell("namd/ref", 4));
    ledger.append(1, makeCell("leslie3d/ref", 6));
    EXPECT_GT(readFile(path).size(), prolog)
        << "the fourth append completes the batch and must flush";
    std::remove(path.c_str());
}

TEST(LedgerWriter, IntervalTriggerFlushesAStaleBatch)
{
    const std::string path = "/tmp/vmargin_test_wr_interval";
    std::remove(path.c_str());
    LedgerWriteOptions options;
    options.flushEveryCells = 1000; // count trigger never fires
    options.flushIntervalMs = 1;
    RunLedger ledger(path, "test", options);
    ledger.open("h");
    const size_t prolog = readFile(path).size();
    ledger.append(1, makeCell("bwaves/ref", 0));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ledger.append(1, makeCell("mcf/ref", 2));
    EXPECT_GT(readFile(path).size(), prolog)
        << "a batch older than flushIntervalMs must flush on the "
           "next append";
    std::remove(path.c_str());
}

/**
 * The kill matrix for cell streams: truncate a three-cell ledger at
 * every frame boundary and at several offsets inside every frame
 * (into the length word, into the checksum word, mid-payload), in a
 * version-3 file (one frame per cell) and a version-2 one (a frame
 * per run, then a commit frame). Replay must recover exactly the
 * cells whose last frame survived intact, and appending after
 * recovery must realign the file so a third open sees recovered +
 * fresh cells.
 */
TEST(CrashMatrix, CellTruncationAtEveryFrameBoundary)
{
    const std::string path = "/tmp/vmargin_test_matrix_cells";
    for (const uint32_t version : {3u, 2u}) {
        SCOPED_TRACE("version " + std::to_string(version));
        std::remove(path.c_str());
        if (version != kLedgerVersion)
            ledger_files::createLedgerFile(path, "h", version);
        {
            RunLedger ledger(path, "test");
            ledger.open("h");
            ledger.append(3, makeCell("bwaves/ref", 0));
            ledger.append(3, makeCell("mcf/ref", 2));
            ledger.append(3, makeCell("namd/ref", 4));
        }
        const std::string bytes = readFile(path);
        const std::vector<size_t> boundaries = frameBoundaries(bytes);
        // header + 3 cells x (one cell frame, or 3 runs + commit)
        const size_t cell_frames = version >= 3 ? 1 : 4;
        ASSERT_EQ(boundaries.size(), 1 + 3 * cell_frames);

        // Cells completed once the prefix covers frame i (1-based
        // record frames after the header; each cell's last frame
        // closes it).
        const auto cellsCommittedAt = [&](size_t prefix) {
            size_t cells = 0;
            for (size_t frame = cell_frames; frame < boundaries.size();
                 frame += cell_frames)
                if (boundaries[frame] <= prefix)
                    ++cells;
            return cells;
        };

        const std::string trunc = "/tmp/vmargin_test_matrix_cells_cut";
        std::vector<size_t> cuts;
        for (size_t i = 0; i < boundaries.size(); ++i) {
            const size_t boundary = boundaries[i];
            cuts.push_back(boundary);
            if (i + 1 < boundaries.size()) {
                cuts.push_back(boundary + 1); // torn length word
                cuts.push_back(boundary + 6); // torn checksum word
                cuts.push_back(boundary +
                               (boundaries[i + 1] - boundary) / 2);
            }
        }
        for (const size_t cut : cuts) {
            writeFile(trunc, bytes.substr(0, cut));
            const size_t expect = cellsCommittedAt(cut);
            {
                RunLedger recovered(trunc, "test");
                recovered.open("h");
                EXPECT_EQ(recovered.size(), expect)
                    << "prefix of " << cut << " bytes";
                // Append-after-recovery: the writer must realign the
                // file to the last intact frame first.
                recovered.append(3, makeCell("soplex/ref", 6));
            }
            RunLedger reopened(trunc, "test");
            reopened.open("h");
            EXPECT_EQ(reopened.fileVersion(), version);
            EXPECT_EQ(reopened.size(), expect + 1)
                << "after kill at " << cut
                << " bytes and one fresh append";
            EXPECT_NE(reopened.find(3, ChipRef{}, "soplex/ref", 6),
                      nullptr);
        }
        std::remove(trunc.c_str());
    }
    std::remove(path.c_str());
}

/** Same matrix for daemon journals: a round is durable only when
 *  its supervisor checkpoint survives with it. */
TEST(CrashMatrix, DaemonRoundTruncationAtEveryFrameBoundary)
{
    const std::string path = "/tmp/vmargin_test_matrix_rounds";
    std::remove(path.c_str());
    {
        RunLedger ledger(path, "test");
        ledger.open("h");
        for (int round = 0; round < 3; ++round) {
            DaemonRoundRecord record;
            record.round = round;
            record.voltage = static_cast<MilliVolt>(900 - round);
            record.energyJoule = 1.5 * (round + 1);
            record.nominalJoule = 2.0 * (round + 1);
            SupervisorCheckpoint state;
            state.roundsCompleted =
                static_cast<uint32_t>(round) + 1;
            state.supervisor.guardSteps = round;
            state.supervisor.peakGuardSteps = round;
            ledger.appendDaemonRound(record, state);
        }
    }
    const std::string bytes = readFile(path);
    const std::vector<size_t> boundaries = frameBoundaries(bytes);
    // header + 3 rounds x (round + checkpoint)
    ASSERT_EQ(boundaries.size(), 7u);

    // A pair is committed once the prefix covers its checkpoint
    // frame (frames 2, 4 and 6 after the header).
    const auto roundsCommittedAt = [&](size_t prefix) {
        size_t rounds = 0;
        for (size_t frame = 2; frame < boundaries.size();
             frame += 2)
            if (boundaries[frame] <= prefix)
                ++rounds;
        return rounds;
    };

    const std::string trunc = "/tmp/vmargin_test_matrix_rounds_cut";
    for (size_t i = 0; i < boundaries.size(); ++i) {
        for (const size_t cut :
             {boundaries[i], boundaries[i] + 3}) {
            if (cut > bytes.size())
                continue;
            writeFile(trunc, bytes.substr(0, cut));
            RunLedger recovered(trunc, "test");
            recovered.open("h");
            const size_t expect = roundsCommittedAt(cut);
            ASSERT_EQ(recovered.daemonRounds().size(), expect)
                << "prefix of " << cut << " bytes";
            for (size_t r = 0; r < expect; ++r) {
                EXPECT_EQ(recovered.daemonRounds()[r].round.round,
                          static_cast<int>(r));
                EXPECT_EQ(recovered.daemonRounds()[r]
                              .state.roundsCompleted,
                          static_cast<uint32_t>(r) + 1);
            }
        }
    }
    std::remove(path.c_str());
    std::remove(trunc.c_str());
}

TEST(CrashMatrix, KillMidBatchLosesOnlyTheUnflushedTail)
{
    const std::string path = "/tmp/vmargin_test_matrix_midbatch";
    const std::string copy =
        "/tmp/vmargin_test_matrix_midbatch_copy";
    std::remove(path.c_str());

    LedgerWriteOptions options;
    options.flushEveryCells = 2;
    RunLedger ledger(path, "test", options);
    ledger.open("h");
    const std::vector<CellMeasurement> cells = {
        makeCell("bwaves/ref", 0), makeCell("mcf/ref", 2),
        makeCell("namd/ref", 4), makeCell("leslie3d/ref", 6),
        makeCell("soplex/ref", 1)};
    for (const auto &cell : cells)
        ledger.append(4, cell);

    // Two full batches flushed, the fifth cell pending: the on-disk
    // state a kill would leave holds exactly four cells.
    writeFile(copy, readFile(path));
    RunLedger recovered(copy, "test");
    recovered.open("h");
    EXPECT_EQ(recovered.size(), 4u);
    EXPECT_EQ(recovered.find(4, ChipRef{}, "soplex/ref", 1), nullptr)
        << "the unflushed fifth cell must not be visible";
    std::remove(path.c_str());
    std::remove(copy.c_str());
}

/**
 * Executor-level crash matrix: a campaign journaling under a batched
 * policy on a hostile management plane is killed (budget) and its
 * journal then truncated mid-frame; the resumed report must be
 * byte-identical to the uninterrupted sweep at every worker count.
 */
TEST(CrashMatrix, BatchedJournalResumeIsByteIdenticalPerWorkerCount)
{
    FrameworkConfig base;
    base.workloads = {wl::findWorkload("leslie3d/ref")};
    base.cores = {0, 2, 4, 6};
    base.campaigns = 2;
    base.maxEpochs = 8;
    base.startVoltage = 930;
    base.endVoltage = 880;

    sim::FaultPlanConfig plan;
    plan.i2cWriteFailure = 0.10;
    plan.watchdogMiss = 0.05;
    plan.staleRead = 0.05;
    plan.seed = 41;

    const auto machine = [&]() {
        sim::Platform platform(sim::XGene2Params{},
                               sim::ChipCorner::TTT, 21);
        platform.installFaultPlan(plan);
        return platform;
    };

    // Ground truth: one uninterrupted session.
    std::string reference;
    {
        sim::Platform platform = machine();
        CharacterizationFramework framework(&platform);
        reference =
            serializeReport(framework.characterize(base));
    }

    for (const int workers : {1, 2, 8}) {
        const std::string journal =
            "/tmp/vmargin_test_matrix_resume_w" +
            std::to_string(workers);
        std::remove(journal.c_str());

        FrameworkConfig config = base;
        config.workers = workers;
        config.journalPath = journal;
        config.flushEveryCells = 3;

        // Session 1: killed by the cell budget after two cells.
        config.cellBudget = 2;
        {
            sim::Platform platform = machine();
            CharacterizationFramework framework(&platform);
            const auto partial = framework.characterize(config);
            ASSERT_FALSE(partial.complete);
        }

        // The kill also tore the journal tail mid-frame.
        const auto size = std::filesystem::file_size(journal);
        std::filesystem::resize_file(journal, size - 11);

        // Session 2: resume to completion.
        config.cellBudget = 0;
        sim::Platform platform = machine();
        CharacterizationFramework framework(&platform);
        const uint64_t replays_before = counterValue(kFromJournal);
        const auto resumed = framework.characterize(config);
        EXPECT_TRUE(resumed.complete);
        EXPECT_GE(counterValue(kFromJournal) - replays_before, 1u);
        EXPECT_EQ(serializeReport(resumed), reference)
            << "resume with " << workers
            << " workers must reproduce the uninterrupted report "
               "byte for byte";
        std::remove(journal.c_str());
    }
}

} // namespace
} // namespace vmargin
