/**
 * @file
 * The run ledger: one typed, append-only record stream unifying
 * every persistence format of the data plane (the paper's "safe data
 * collection"; arXiv:2106.09975 makes the logging/parsing split
 * explicit). Three layers: the pure codec (ledger_codec.hh), the
 * pure replay of a file's bytes (replayLedger), and the file-backed
 * RunLedger. `CampaignJournal` and `CellResultCache` are thin views
 * over a RunLedger, and every analysis consumer derives its view
 * through `LedgerView` (ledger_view.hh).
 */

#ifndef VMARGIN_CORE_LEDGER_HH
#define VMARGIN_CORE_LEDGER_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "ledger_codec.hh"
#include "obs/metrics.hh"
#include "regions.hh"
#include "util/types.hh"

namespace vmargin
{

namespace util
{
class ThreadPool;
} // namespace util

/** Result cell for one (workload, core) pair. */
struct CellResult
{
    std::string workloadId;
    CoreId core = 0;
    RegionAnalysis analysis;

    bool operator==(const CellResult &other) const = default;
};

/**
 * Group-commit policy of a ledger writer. The default preserves the
 * historical durability contract: every appended commit unit (a
 * cell's frames + commit, or a daemon round + checkpoint) is handed
 * to the OS and flushed before append() returns. Raising
 * flushEveryCells batches units in the writer's buffer and flushes
 * once per batch — long campaigns trade a bounded, replay-tolerated
 * kill-tail (at most the unflushed batch) for one write+flush per N
 * cells. flushIntervalMs bounds how stale the buffered tail may
 * grow under a slow producer; 0 disables the time trigger.
 */
struct LedgerWriteOptions
{
    /** Flush after this many buffered commit units (>= 1; 1 =
     *  write-ahead flush per cell, the default). */
    int flushEveryCells = 1;

    /** Also flush when this many milliseconds passed since the last
     *  flush (0 = no time trigger). */
    int flushIntervalMs = 0;

    /** Fatal (value-bearing) on an unusable policy. */
    void validate(const std::string &name) const;
};

/**
 * Buffered appender over one open ledger file. Owns the file handle
 * for the ledger's whole lifetime — the historical writer reopened
 * the file on every append, which dominated append cost — plus the
 * pending group-commit buffer. Every write and flush is checked;
 * failure (ENOSPC, EIO, ...) is fatal with the path and the byte
 * offset the file is known good to. Not thread-safe on its own: the
 * owning RunLedger serializes access.
 */
class LedgerWriter
{
  public:
    LedgerWriter(std::string path, std::string name);
    ~LedgerWriter();

    LedgerWriter(const LedgerWriter &) = delete;
    LedgerWriter &operator=(const LedgerWriter &) = delete;

    /** Create the file and durably write @p initial_bytes (magic +
     *  header frame). Fatal when the file cannot be created. */
    void create(std::string_view initial_bytes);

    /** Open an existing file for appending after @p committed_bytes
     *  already-loaded bytes. Fatal when it cannot be opened. */
    void openAppend(uint64_t committed_bytes);

    /** Buffer one commit unit's frames and flush if the batch policy
     *  says the group commit is due. */
    void append(std::string_view bytes,
                const LedgerWriteOptions &options);

    /** Drain the pending batch to the OS (no-op when empty). */
    void flush();

    /** Close the handle (drains first). */
    void close();

  private:
    std::string path_;
    std::string name_;
    std::FILE *file_ = nullptr;
    std::string pending_;      ///< buffered, unflushed frame bytes
    size_t pendingUnits_ = 0;  ///< commit units inside pending_
    uint64_t committedBytes_ = 0;
    std::chrono::steady_clock::time_point lastFlush_{};

    // Telemetry. Appended bytes/units are a pure function of what
    // the campaign measured (Exact); the *batch* count depends on
    // the interval trigger firing, so it is scheduling-class.
    obs::Counter &statAppendBytes_;
    obs::Counter &statAppendUnits_;
    obs::Counter &statFlushBatches_;
};

/**
 * Append-only, mutex-guarded ledger over one file.
 *
 * On disk: the 4-byte magic, a header frame (framing version + an
 * application binding header), then record frames. Cells are
 * appended atomically — the cell frame (or, in a version-1 or -2
 * file, all run frames plus the commit frame) enters the writer as
 * one unit, and the group-commit policy
 * (LedgerWriteOptions) decides when units are written and flushed;
 * the default flushes every unit (write-ahead semantics: a killed
 * process keeps every committed cell, a batched policy loses at
 * most the unflushed batch, which replay discards as a torn tail).
 * Record encoding happens *outside* the mutex into reusable
 * per-thread scratch buffers; the critical section is the duplicate
 * check, the buffer append and the flush decision. Loading
 * tolerates a truncated tail (discarded with a warning), skips
 * checksum-failed and malformed frames, and refuses foreign files
 * and version mismatches.
 *
 * Completed cells are keyed by (configHash, workload, core); the
 * first intact occurrence wins, so racing sessions appending the
 * same cell — or a resume merging out-of-order parallel appends —
 * converge on one measurement per key.
 *
 * Memory: the ledger keeps the key of every committed cell, but the
 * contents only of the cells open() replayed. An appended cell is
 * on disk and in its caller's hands; holding a second copy would
 * make every fresh run resident twice.
 */
class RunLedger
{
  public:
    /**
     * @param path ledger file
     * @param name message prefix ("journal", "cellcache", ...)
     * @param options group-commit policy (default: flush per cell)
     */
    RunLedger(std::string path, std::string name,
              LedgerWriteOptions options = {});

    /** Drains any pending group-commit batch, then closes. */
    ~RunLedger();

    /**
     * Bind to @p app_header: a fresh file is created with it, an
     * existing file must carry it verbatim (fatal otherwise, with
     * @p mismatch_hint appended to the error). Loads the file with
     * one bulk read (mmap where available), replays its bytes with
     * replayLedger() (on @p pool's workers, see there), books the
     * replay counts into the `ledger.replay_frames`,
     * `ledger.replay_skipped` and `ledger.torn_tail_truncations`
     * counters, and keeps the file open for appending after its
     * last committed unit. Fresh files are created at the current
     * framing version; files back to kLedgerMinVersion are
     * replayed, mapping version-1 cells (which predate the chip
     * dimension) onto @p implicit_chip, and appends to such a file
     * stay at its version so it remains self-consistent. Not
     * thread-safe; open before workers append. @p pool must be
     * idle: open() waits on it.
     */
    void open(const std::string &app_header,
              const std::string &mismatch_hint = "",
              ChipRef implicit_chip = {},
              util::ThreadPool *pool = nullptr);

    /**
     * Drain the writer's pending group-commit batch to the OS.
     * Callers with a durability barrier (the executor's merge
     * barrier, session shutdown) call this; with the default
     * flush-per-cell policy it is a no-op.
     */
    void flush();

    /**
     * Replayed measurement for the cell on @p chip, or nullptr;
     * entries recorded under a different @p config_hash are not
     * found, and neither are cells appended since open() or taken.
     * The pointer stays valid across append(); take() empties it.
     */
    const CellMeasurement *find(Seed config_hash,
                                const ChipRef &chip,
                                const std::string &workload_id,
                                CoreId core) const;

    /**
     * Move a replayed cell out of the ledger: the contents find()
     * would return, or nothing (then and for every later take() or
     * find() of the key). The key stays committed, so size() and
     * first-write-wins are unchanged. For a caller about to drop
     * the ledger that wants the runs without a copy.
     */
    std::optional<CellMeasurement> take(Seed config_hash,
                                        const ChipRef &chip,
                                        const std::string &workload_id,
                                        CoreId core);

    /**
     * Append a cell and flush: one cell frame in a version-3
     * file, its run frames plus a commit frame in an older one.
     * The cell's chip coordinate is part of the key and (from
     * version 2) of the frame. Panics, naming the field, on a run
     * whose workload id, core or frequency is not the cell's: no
     * version replays such a cell. Safe to call concurrently. A
     * duplicate key is ignored — first write wins. Only the key is
     * kept in memory: find() does not serve the appended cell until
     * the file is reopened.
     */
    void append(Seed config_hash, const CellMeasurement &cell);

    /** Framing version of the open file (fresh files: current). */
    uint32_t fileVersion() const { return fileVersion_; }

    /** Number of committed cells across all configuration hashes. */
    size_t size() const;

    /** Cells replayed by open(), in on-disk (completion) order,
     *  with their keys. append() neither adds to nor invalidates
     *  it; a taken cell's slot is left empty. */
    struct Entry
    {
        Seed configHash = 0;
        CellMeasurement cell;
    };
    const std::vector<Entry> &entries() const { return entries_; }

    /**
     * One daemon round with the checkpoint that committed it. The
     * checkpoint frame plays the commit role: a round frame whose
     * checkpoint is missing, corrupt or out of sequence is the tail
     * a killed daemon was writing — it (and everything after it) is
     * discarded on load and the round is re-executed.
     */
    struct DaemonRoundEntry
    {
        DaemonRoundRecord round;
        SupervisorCheckpoint state;
    };

    /** Committed daemon rounds in round order (daemon journals). */
    const std::vector<DaemonRoundEntry> &daemonRounds() const
    {
        return daemonRounds_;
    }

    /**
     * Append one daemon round plus its supervisor checkpoint as a
     * single flushed unit (write-ahead semantics, like cells).
     */
    void appendDaemonRound(const DaemonRoundRecord &round,
                           const SupervisorCheckpoint &state);

    const std::string &path() const { return path_; }

    /** (configHash, chip key, workload, core) of one cell. */
    using Key = std::tuple<Seed, uint64_t, std::string, CoreId>;

  private:
    /** byKey_ value of a committed cell whose contents are not
     *  kept: appended this session, or taken. */
    static constexpr size_t kNotKept = SIZE_MAX;

    std::string path_;
    std::string name_;
    LedgerWriteOptions options_;
    mutable std::mutex mutex_; ///< guards the cell maps and writer
    LedgerWriter writer_;
    std::vector<Entry> entries_; ///< replayed cells
    /** Every committed cell's key -> its entries_ index, or
     *  kNotKept. A map, not a scan of entries_: a scan made both
     *  replay and the per-append duplicate check quadratic in the
     *  cell count. */
    std::map<Key, size_t> byKey_;
    std::vector<DaemonRoundEntry> daemonRounds_;
    uint32_t fileVersion_ = kLedgerVersion;
};

/** What replayLedger() recovered from a ledger file's bytes. */
struct LedgerReplay
{
    uint32_t version = kLedgerVersion; ///< the file's framing version
    /** Kept cells in file order: the first intact one of each key. */
    std::vector<RunLedger::Entry> entries;
    std::map<RunLedger::Key, size_t> index; ///< key -> entries index
    std::vector<RunLedger::DaemonRoundEntry> daemonRounds;
    /** Offset one past the last committed unit (header, commit or
     *  cell frame, accepted checkpoint); what follows is untrusted. */
    size_t committedBytes = 0;
    uint64_t frames = 0;   ///< whole frames, the header frame included
    uint64_t skipped = 0;  ///< corrupt or malformed record frames
    bool tornTail = false; ///< the bytes end inside a frame
};

/**
 * Replay ledger @p bytes (magic first) bound to @p app_header; fatal,
 * prefixed by @p label, on a foreign file, a bad header frame or
 * version, or another header (ending in @p mismatch_hint, else
 * "header mismatch"). Pass 2 checksums the record frames and decodes
 * version-3 cell frames, in byte-balanced ranges on @p pool's
 * workers (at most one each) when it has two or more; pass 3 replays
 * the frames one at a time in file order on this thread, so what is
 * kept, skipped, warned and cut does not depend on the pool.
 * Version-1 cells map onto @p implicit_chip. No file I/O and no
 * telemetry. @p pool must be idle: replay waits on it.
 */
LedgerReplay replayLedger(std::string_view bytes,
                          const std::string &app_header,
                          const std::string &label,
                          util::ThreadPool *pool = nullptr,
                          const std::string &mismatch_hint = "",
                          ChipRef implicit_chip = {});

} // namespace vmargin

#endif // VMARGIN_CORE_LEDGER_HH
