/**
 * @file
 * The run ledger: one typed, append-only record stream unifying
 * every persistence format of the data plane.
 *
 * The paper's "safe data collection" discipline stores every run's
 * effects durably so the parsing/analysis phases can execute long
 * after the (six-month!) measurement campaigns, and the follow-up
 * framework paper (arXiv:2106.09975) makes the logging/parsing split
 * explicit. Before this module the repo had three divergent
 * persistence formats — the write-ahead journal, the cell-result
 * cache and the report CSV — each with its own framing and parsing,
 * and four analysis stages that re-walked the run rows with ad-hoc
 * loops. The ledger collapses all of that onto two pieces:
 *
 *  - a **record schema**: `RunRecord` (the chip/core/workload/
 *    voltage/campaign/run coordinates plus the classified `EffectSet`
 *    and per-run telemetry — exactly the columns of the final CSV)
 *    and `CellCommit` (the marker closing one (workload, core)
 *    cell's records, carrying the cell-level recovery telemetry);
 *
 *  - a **binary framing**: every record is a length-prefixed,
 *    checksummed frame. A killed process leaves a truncated tail
 *    that is detected and discarded; a corrupted frame is skipped
 *    with a warning; a file written by a different ledger version is
 *    refused outright.
 *
 * `CampaignJournal` and `CellResultCache` are thin views over a
 * `RunLedger` (their only difference is the binding header and
 * whether the cell key includes a configuration hash), and every
 * analysis consumer derives its view — region analyses, severity by
 * voltage, the characterization report, prediction datasets —
 * through the single-pass `LedgerView` aggregator instead of
 * re-walking the rows per stage.
 */

#ifndef VMARGIN_CORE_LEDGER_HH
#define VMARGIN_CORE_LEDGER_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "classifier.hh"
#include "obs/metrics.hh"
#include "recovery.hh"
#include "regions.hh"
#include "sim/param.hh"
#include "util/types.hh"

namespace vmargin
{

/**
 * Identity of one physical chip in a fleet: process corner plus
 * serial number. The paper characterized three X-Gene 2 parts
 * (TTT/TFF/TSS) side by side; every plane of this repo used to
 * assume exactly one ambient chip, so chip identity lived only in
 * the platform object. ChipRef lifts it into the data model: cells
 * are keyed by (chip, workload, core), ledger commits carry the
 * chip, and fleet reports merge chips in the canonical key() order
 * so results are independent of enumeration order.
 *
 * The default value — TTT serial 0 — is the *implicit* single chip:
 * version-1 ledger files predate the chip dimension, and their
 * records are mapped onto the implicit chip a reader supplies to
 * RunLedger::open() (the journal passes its platform's chip, so a
 * legacy single-chip journal resumes seamlessly).
 */
struct ChipRef
{
    sim::ChipCorner corner = sim::ChipCorner::TTT;
    uint32_t serial = 0;

    /** Canonical 64-bit ordering key: corner-major, serial-minor. */
    uint64_t key() const
    {
        return (static_cast<uint64_t>(corner) << 32) | serial;
    }

    /** Printable "TFF#2" form (matches sim::Chip::name()). */
    std::string name() const
    {
        return sim::cornerName(corner) + "#" +
               std::to_string(serial);
    }

    friend bool operator==(const ChipRef &a, const ChipRef &b)
    {
        return a.key() == b.key();
    }
    friend bool operator<(const ChipRef &a, const ChipRef &b)
    {
        return a.key() < b.key();
    }
};

/**
 * One (workload, core) cell's complete measurement: the classified
 * runs of all campaign repetitions plus the recovery/watchdog
 * record that produced them. This is the unit the ledger commits
 * and replays. The ledger persists the classified records, not the
 * raw results they were built from, and the sweep engine does not
 * keep raw results either: `records` is empty in every cell the
 * library builds (only the benchmark driver's traced sweep fills
 * it).
 */
struct CellMeasurement
{
    /** Chip the cell was measured on (the third cell coordinate). */
    ChipRef chip;
    std::string workloadId;
    CoreId core = 0;
    std::vector<ClassifiedRun> runs;
    std::vector<RunLogRecord> records;
    uint64_t watchdogInterventions = 0;
    RecoveryTelemetry telemetry;
};

/** Result cell for one (workload, core) pair. */
struct CellResult
{
    std::string workloadId;
    CoreId core = 0;
    RegionAnalysis analysis;

    bool operator==(const CellResult &other) const = default;
};

/**
 * The ledger's unit record: one classified characterization run.
 * `ClassifiedRun` already carries exactly the ledger columns — the
 * (workload, core, voltage, frequency, campaign, run) coordinates,
 * the `EffectSet`, and the per-run telemetry (error counts, exit
 * code, timing, and the per-site EDAC detail as two typed
 * `sim::SiteCounts`, CE and UE) — so it *is* the run record;
 * the alias fixes the canonical name. The report's run-row emitter
 * (`appendRunCsv`, core/resultstore) and the binary codec below are
 * the two encoders over this one schema.
 */
using RunRecord = ClassifiedRun;

/**
 * Commit marker closing one (workload, core) cell's run records.
 * A cell is complete only when its commit frame is present and its
 * `runCount` matches the records that precede it — the write-ahead
 * contract: a killed process's half-written cell is re-run, never
 * trusted.
 */
struct CellCommit
{
    /** cellConfigHash() key for cache entries; 0 in journals, which
     *  bind the whole file to one experiment instead. */
    Seed configHash = 0;
    /** Chip coordinate of the cell. Version-2 frames persist it;
     *  version-1 frames predate it and decode to the implicit chip
     *  the reader supplies. */
    ChipRef chip;
    std::string workloadId;
    CoreId core = 0;
    uint32_t runCount = 0; ///< run records under this commit
    uint64_t watchdogInterventions = 0;
    RecoveryTelemetry telemetry;
};

/**
 * One scheduling round of the undervolting daemon, as persisted in a
 * daemon journal. The field set mirrors the in-memory round record
 * of `sched::GovernorDaemon` exactly (the sched layer aliases this
 * type), so the journal is a bit-exact write-ahead log of the
 * daemon's report: doubles round-trip through their bits and a
 * resumed session reproduces the uninterrupted report byte for
 * byte.
 */
struct DaemonRoundRecord
{
    int round = 0;
    MilliVolt voltage = 980;   ///< voltage the round ran at
    double energyJoule = 0.0;  ///< consumed at that voltage
    double nominalJoule = 0.0; ///< same work at nominal voltage
    bool anyAbnormal = false;  ///< SDC/CE/UE/AC in the round
    bool crashed = false;      ///< machine went down this round
    int reexecutions = 0;      ///< SDC recoveries this round

    /** True when the governor's setpoint could not be applied within
     *  the retry budget and the round ran at the safe voltage. */
    bool nominalFallback = false;

    /** Why the round fell back (FallbackReason code; 0 = none). */
    uint8_t fallbackReason = 0;

    /** Supervisor guard steps added on top of the governor's
     *  configured guardband this round (0 when unsupervised). */
    int guardSteps = 0;

    /** True when this round was a canary probe re-admitting
     *  quarantined cores at a stepped-down undervolt. */
    bool canaryProbe = false;

    /** True when the supervisor pinned the round at the safe
     *  voltage (quarantine healing or emergency clamp). */
    bool safePinned = false;
};

/**
 * Crash-persistent supervisor/daemon state, checkpointed into the
 * daemon journal after every round. A watchdog power cycle (or a
 * plain process kill) resumes from the last intact checkpoint with
 * the learned safety posture — guardband, quarantine set, event
 * counters — instead of re-learning it by crashing again. The sched
 * layer owns the semantics; this struct is the neutral wire format
 * (modes and reasons are raw codes here).
 */
struct SupervisorCheckpoint
{
    /** Rounds fully served (and journaled) when this was written. */
    uint32_t roundsCompleted = 0;

    // -- daemon continuation state --------------------------------
    MilliVolt legacyClampMv = 0; ///< cumulative abnormal-streak clamp
    uint32_t legacyStreak = 0;   ///< consecutive abnormal rounds
    uint64_t watchdogResets = 0; ///< cumulative session power cycles
    bool machineResponsive = true; ///< machine state at round end
    bool hasSensorSample = false;  ///< SLIMpro temp cache validity
    double sensorSample = 0.0;     ///< SLIMpro cached temperature
    RecoveryTelemetry telemetry;   ///< cumulative session telemetry

    // -- supervisor state -----------------------------------------
    bool supervisorEnabled = false;
    int32_t guardSteps = 0;     ///< current adaptive guard steps
    int32_t peakGuardSteps = 0; ///< widest guard reached so far
    uint32_t cleanStreak = 0;   ///< clean rounds toward a narrow
    uint8_t clampReason = 0;    ///< ClampReason code; 0 = none
    uint64_t backoffEvents = 0;
    uint64_t narrowEvents = 0;
    uint64_t quarantines = 0;
    uint64_t readmissions = 0;
    uint64_t canaryRounds = 0;
    uint64_t canaryFailures = 0;
    uint64_t pinnedRounds = 0;
    std::vector<uint32_t> recentCrashRounds; ///< clamp window

    /** One supervised core's posture. */
    struct CoreState
    {
        uint32_t core = 0;
        uint8_t mode = 0; ///< CoreMode code (normal/quarantined)
        double ceRate = 0.0;
        double ueRate = 0.0;
        double sdcRate = 0.0;
        double crashRate = 0.0;
        uint64_t ceEvents = 0;
        uint64_t ueEvents = 0;
        uint64_t sdcEvents = 0;
        uint64_t crashEvents = 0;
        uint32_t cleanInQuarantine = 0;
    };
    std::vector<CoreState> cores;
};

// ---- framing -----------------------------------------------------

/** First bytes of every ledger file. */
inline constexpr char kLedgerMagic[] = "VMLG";

/**
 * Current framing version. Version 2 added the chip dimension to
 * cell commits. Files of any *newer* version are refused; files
 * back to kLedgerMinVersion are replayed, with version-1 commits
 * mapped onto the implicit chip passed to RunLedger::open(). Fresh
 * files are always created at the current version.
 */
inline constexpr uint32_t kLedgerVersion = 2;

/** Oldest framing version this build still replays. */
inline constexpr uint32_t kLedgerMinVersion = 1;

/** Frame checksum (FNV-1a 32) over a payload. */
uint32_t ledgerChecksum(std::string_view payload);

/** Frames whose checksums ledgerChecksums() computes together. */
inline constexpr size_t kLedgerChecksumLanes = 4;

/**
 * ledgerChecksum() of every payload into @p sums (same size):
 * each full group of kLedgerChecksumLanes payloads in interleaved
 * lanes, so that many independent multiply chains are in flight at
 * once; the payloads after the last full group one by one. The
 * values are ledgerChecksum()'s, bit for bit.
 */
void ledgerChecksums(std::span<const std::string_view> payloads,
                     std::span<uint32_t> sums);

/** Append one frame (length + checksum + payload) to @p out. */
void appendFrame(std::string &out, std::string_view payload);

/**
 * Encode records by appending the frame payload to @p out (no
 * framing applied). The *Into forms let a hot writer reuse one
 * scratch buffer across records instead of allocating a string per
 * record; the value-returning forms below are conveniences over
 * them.
 */
void encodeRunRecordInto(std::string &out, const RunRecord &record);
void encodeCellCommitInto(std::string &out, const CellCommit &commit,
                          uint32_t version = kLedgerVersion);
void encodeDaemonRoundInto(std::string &out,
                           const DaemonRoundRecord &record);
void encodeSupervisorCheckpointInto(std::string &out,
                                    const SupervisorCheckpoint &state);

/** Encode records to frame payloads (no framing applied). */
std::string encodeRunRecord(const RunRecord &record);
std::string encodeCellCommit(const CellCommit &commit);
std::string encodeDaemonRound(const DaemonRoundRecord &record);
std::string encodeSupervisorCheckpoint(const SupervisorCheckpoint &state);

/**
 * Zero-copy cursor over the length-prefixed frames of a ledger
 * byte range. next() yields each frame's payload as a view into the
 * underlying buffer (no copy) plus its recorded checksum — the
 * caller decides what a checksum mismatch means. A partial frame at
 * the end of the range is reported as Truncated, the kill-tail case
 * replay discards. offset() after a Frame result is the byte offset
 * one past that frame — the frame boundaries a group-commit batch
 * is torn at when a process dies mid-write.
 */
class FrameCursor
{
  public:
    enum class Status : uint8_t
    {
        Frame,     ///< payload/checksum filled in
        End,       ///< clean end of the byte range
        Truncated, ///< partial frame prefix or payload at the tail
    };

    explicit FrameCursor(std::string_view bytes, size_t offset = 0)
        : bytes_(bytes), pos_(offset)
    {
    }

    /** Advance to the next frame. */
    Status next(std::string_view &payload, uint32_t &checksum);

    /** Byte offset of the next unread frame (= one past the last
     *  frame returned). */
    size_t offset() const { return pos_; }

  private:
    std::string_view bytes_;
    size_t pos_ = 0;
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

    bool isOpen() const { return file_ != nullptr; }

    /** Commit units buffered but not yet flushed. */
    size_t pendingUnits() const { return pendingUnits_; }

    /** Bytes known durably handed to the OS. */
    uint64_t committedBytes() const { return committedBytes_; }

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
 * appended atomically — all run frames plus the commit frame enter
 * the writer as one unit, and the group-commit policy
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
     * @p mismatch_hint appended to the error). Loads all committed
     * cells with one bulk read (mmap where available) and a
     * zero-copy frame walk, then keeps the file open for appending.
     * Fresh files are created at the current framing version; files
     * back to kLedgerMinVersion are replayed, mapping version-1
     * cells (which predate the chip dimension) onto
     * @p implicit_chip, and appends to such a file stay at its
     * version so it remains self-consistent. Not thread-safe; open
     * before workers start.
     */
    void open(const std::string &app_header,
              const std::string &mismatch_hint = "",
              ChipRef implicit_chip = {});

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
     * Append a cell's run records plus its commit frame and flush.
     * The cell's chip coordinate is part of the key and (in
     * version-2 files) of the commit frame. Safe to call
     * concurrently. A duplicate key is ignored — first write wins.
     * Only the key is kept in memory: find() does not serve the
     * appended cell until the file is reopened.
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

  private:
    /** (configHash, chip key, workload, core) of one cell. */
    using Key = std::tuple<Seed, uint64_t, std::string, CoreId>;

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

/**
 * Single-pass aggregator deriving every analysis view from a run
 * stream. Stream records in with add(); the per-cell region
 * analyses (regions, severity by voltage, Vmin, crash ceilings) are
 * computed once, lazily, from the grouped effects — `regions.cc`
 * and the report/CSV rebuild path both read severity from here
 * instead of recomputing it per stage. Cells keep first-seen
 * (canonical stream) order, so a view fed in canonical cell order
 * reproduces the executor's report cell order exactly.
 */
class LedgerView
{
  public:
    explicit LedgerView(SeverityWeights weights = {});

    /** Stream one run record into the view. */
    void add(const RunRecord &record);

    /** Stream a batch of records. A run of records of one cell,
     *  and within it of one voltage, finds its group once. */
    void addAll(std::span<const RunRecord> records);

    /** Number of records streamed so far. */
    size_t runCount() const { return runCount_; }

    /** Cell keys in first-seen order. */
    struct CellKey
    {
        std::string workloadId;
        CoreId core = 0;
    };
    const std::vector<CellKey> &cellOrder() const { return order_; }

    /**
     * Region analysis of one cell, or nullptr when the cell has no
     * records. Computed on first access, single pass over the
     * cell's grouped effects; later add() calls invalidate and
     * recompute.
     */
    const RegionAnalysis *analysis(const std::string &workload_id,
                                   CoreId core) const;

    /** Severity-by-voltage view of one cell (the single source both
     *  regions.cc and the report path read); panics when the cell
     *  has no records. */
    const std::map<MilliVolt, double> &
    severityByVoltage(const std::string &workload_id,
                      CoreId core) const;

    /**
     * Derive every not-yet-analyzed cell's region analysis across
     * @p workers threads (0 = hardware concurrency, <= 1 or fewer
     * than two pending cells = inline serial). Per-cell derivation
     * is independent — each task writes only its own group's
     * memoized analysis — and results are read back in canonical
     * first-seen order, so the derived views are identical for any
     * worker count. analysis()/cellResults() after deriveAll() are
     * pure reads.
     */
    void deriveAll(int workers = 0) const;

    /** All cells' results in first-seen order. */
    std::vector<CellResult> cellResults() const;

    const SeverityWeights &weights() const { return weights_; }

  private:
    struct Group
    {
        CellKey key;
        /** Effects grouped by voltage — the accumulation the whole
         *  analysis derives from. */
        std::map<MilliVolt, std::vector<EffectSet>> runsByVoltage;
        mutable RegionAnalysis analysis;
        mutable bool analyzed = false;
    };

    /** Orders index_ keys against (workload view, core) probes, so
     *  a lookup copies no workload id. */
    struct KeyLess
    {
        using is_transparent = void;

        template <typename A, typename B>
        bool
        operator()(const A &a, const B &b) const
        {
            return std::pair<std::string_view, CoreId>(a.first,
                                                       a.second) <
                   std::pair<std::string_view, CoreId>(b.first,
                                                       b.second);
        }
    };

    const Group *group(std::string_view workload_id,
                       CoreId core) const;
    /** The group of (@p workload_id, @p core), created at the end
     *  of the first-seen order when new. */
    Group &groupFor(const std::string &workload_id, CoreId core);
    void analyze(const Group &group) const;

    SeverityWeights weights_;
    std::vector<Group> groups_;
    std::map<std::pair<std::string, CoreId>, size_t, KeyLess> index_;
    std::vector<CellKey> order_;
    size_t runCount_ = 0;
};

} // namespace vmargin

#endif // VMARGIN_CORE_LEDGER_HH
