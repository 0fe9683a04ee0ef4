/**
 * @file
 * The ledger codec, with no I/O and no telemetry: the record schema
 * (`RunRecord` and `CellCommit` for cells, `DaemonRoundRecord` and
 * `SupervisorCheckpoint` for daemon journals) and its framing, where
 * every record is a length-prefixed, checksummed frame whose first
 * payload byte names its kind. Each decoder accepts exactly the
 * payloads its encoder writes, so an accepted payload re-encodes to
 * its own bytes.
 */

#ifndef VMARGIN_CORE_LEDGER_CODEC_HH
#define VMARGIN_CORE_LEDGER_CODEC_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "classifier.hh"
#include "recovery.hh"
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
 * The commit fields of one (chip, workload, core) cell. In a
 * version-3 file they head the cell's one `Cell` frame, whose
 * checksum covers every run. In versions 1 and 2 they form the
 * commit frame that closes the cell's run frames: a cell is complete
 * only when its commit frame is present and its `runCount` matches
 * the records that precede it — the write-ahead contract: a killed
 * process's half-written cell is re-run, never trusted.
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
 * The margin supervisor's whole safety posture: guardband, clamp,
 * lifetime counters, crash window and every tracked core's EWMA
 * rates and quarantine flag. Like DaemonRoundRecord, this one struct
 * is both the in-memory state of `sched::MarginSupervisor` and the
 * wire schema of its journal checkpoint, so checkpoint and restore
 * are whole-struct copies and a restored supervisor takes every
 * future decision of the uninterrupted one.
 */
struct SupervisorPosture
{
    /** One supervised core's posture. */
    struct CoreState
    {
        CoreId core = 0;
        /** Healing at the safe voltage until a canary re-admits
         *  it; no undervolted work meanwhile. */
        bool quarantined = false;
        double ceRate = 0.0; ///< per-round EWMA event rates
        double ueRate = 0.0;
        double sdcRate = 0.0;
        double crashRate = 0.0;
        uint64_t ceEvents = 0; ///< lifetime event counts
        uint64_t ueEvents = 0;
        uint64_t sdcEvents = 0;
        uint64_t crashEvents = 0;
        uint32_t cleanInQuarantine = 0; ///< clean rounds in the hold

        bool operator==(const CoreState &other) const = default;
    };

    int guardSteps = 0;       ///< current adaptive guard steps
    int peakGuardSteps = 0;   ///< widest guard reached so far
    uint32_t cleanStreak = 0; ///< clean rounds toward a narrow
    ClampReason clampReason = ClampReason::None; ///< active clamp

    // Lifetime counters (monotonic; survive checkpoint/restore).
    uint64_t backoffEvents = 0;
    uint64_t narrowEvents = 0;
    uint64_t quarantines = 0;
    uint64_t readmissions = 0;
    uint64_t canaryRounds = 0;
    uint64_t canaryFailures = 0;
    uint64_t pinnedRounds = 0;

    std::vector<uint32_t> recentCrashRounds; ///< crash-storm window
    std::vector<CoreState> cores; ///< tracked, ascending by core id

    /** Currently quarantined cores, ascending. */
    std::vector<CoreId> quarantinedCores() const;

    bool operator==(const SupervisorPosture &other) const = default;
};

/**
 * Crash-persistent supervisor/daemon state, checkpointed into the
 * daemon journal after every round. A watchdog power cycle (or a
 * plain process kill) resumes from the last intact checkpoint with
 * the learned safety posture instead of re-learning it by crashing
 * again, plus the daemon-side state a future round depends on.
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
    SupervisorPosture supervisor;
};

// ---- framing -----------------------------------------------------

/** First bytes of every ledger file. */
inline constexpr char kLedgerMagic[] = "VMLG";

/** Bytes of kLedgerMagic in a file (no terminator). */
inline constexpr size_t kLedgerMagicBytes = sizeof(kLedgerMagic) - 1;

/** Bytes before each frame's payload: u32 length, u32 checksum. */
inline constexpr size_t kLedgerFramePrefixBytes = 8;

/**
 * Current framing version. Version 2 added the chip dimension to
 * cell commits. Version 3 stores each cell as one `Cell` frame (the
 * key and commit fields once, then every run's numeric columns and
 * effect mask, no text) in place of a frame per run plus a commit
 * frame; run and commit frames in a version-3 file, and cell frames
 * in an older one, are malformed. Files of any *newer* version are
 * refused; files back to kLedgerMinVersion are replayed, with
 * version-1 commits mapped onto the implicit chip passed to
 * RunLedger::open(). Fresh files are always created at the current
 * version; appends to an older file keep that file's version.
 */
inline constexpr uint32_t kLedgerVersion = 3;

/** Oldest framing version this build still replays. */
inline constexpr uint32_t kLedgerMinVersion = 1;

/** Frame checksum (FNV-1a 32) over a payload. */
uint32_t ledgerChecksum(std::string_view payload);

/** Frames whose checksums ledgerChecksums() computes together. */
inline constexpr size_t kLedgerChecksumLanes = 4;

/**
 * ledgerChecksum() of every payload into @p sums (same size), in
 * kLedgerChecksumLanes interleaved lanes, so that many independent
 * multiply chains are in flight at once: a lane whose payload ends
 * takes the next one, and the last payloads finish one by one. The
 * values are ledgerChecksum()'s, bit for bit.
 */
void ledgerChecksums(std::span<const std::string_view> payloads,
                     std::span<uint32_t> sums);

/** Append one frame (length + checksum + payload) to @p out. */
void appendFrame(std::string &out, std::string_view payload);

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

/** The header frame payload of a fresh file: kLedgerVersion, then
 *  @p app_header. */
std::string encodeLedgerHeader(std::string_view app_header);

/** A header frame payload's application header (nullopt when the
 *  payload ends short of it); its framing version into @p version
 *  (0 when too short to hold one). */
std::optional<std::string> decodeLedgerHeader(std::string_view payload,
                                              uint32_t &version);

// ---- records -----------------------------------------------------

/** First payload byte of every record frame: which record follows. */
enum class FrameKind : uint8_t
{
    Run = 1,
    Commit = 2,
    DaemonRound = 3,
    Supervisor = 4,
    Cell = 5, ///< version 3: a whole cell, in place of Run + Commit
};

/** The kind byte of a record payload, unverified (0 when empty). */
inline FrameKind
frameKindOf(std::string_view payload)
{
    return payload.empty() ? FrameKind{}
                           : static_cast<FrameKind>(payload.front());
}

/**
 * Encode records by appending the frame payload to @p out (no
 * framing applied), so a hot writer reuses one scratch buffer
 * across records instead of allocating a string per record.
 */
void encodeRunRecordInto(std::string &out, const RunRecord &record);
/** A version-1 or version-2 commit frame (the last with one). */
void encodeCellCommitInto(std::string &out, const CellCommit &commit,
                          uint32_t version = 2);
/** A version-3 cell frame: @p cell's key and commit fields, keyed
 *  by @p config_hash, then its runs. Panics, naming the field, on a
 *  run whose workload id, core or frequency is not the cell's, or
 *  on a negative core. */
void encodeCellInto(std::string &out, Seed config_hash,
                    const CellMeasurement &cell);
void encodeDaemonRoundInto(std::string &out,
                           const DaemonRoundRecord &record);
void encodeSupervisorCheckpointInto(std::string &out,
                                    const SupervisorCheckpoint &state);

/**
 * Append @p cell framed as a file of framing @p version holds it:
 * one cell frame (version 3), or a frame per run and then the commit
 * frame. @p payload is scratch for one payload. Panics like
 * encodeCellInto at every version: no version replays such a cell.
 */
void appendCellFrames(std::string &out, std::string &payload,
                      Seed config_hash, const CellMeasurement &cell,
                      uint32_t version);

/**
 * Decode one record frame payload, kind byte included. False, the
 * output unspecified, on any payload its encoder does not write:
 * another kind, a short payload, bytes after the record, or a value
 * no session writes (a core past CoreId, a corner past TSS, a bool
 * byte past 1, an unknown code or flag bit, effects or site text in
 * another spelling or order, ...).
 */
bool decodeRunRecord(std::string_view payload, RunRecord &run);
/** A commit frame of a version-@p version file (version 1 has no
 *  chip; the commit keeps the default ChipRef). */
bool decodeCellCommit(std::string_view payload, uint32_t version,
                      CellCommit &commit);
/** A version-3 cell frame, the inverse of encodeCellInto: @p cell
 *  (given with no runs) gets its runs reserved at their exact count. */
bool decodeCell(std::string_view payload, Seed &config_hash,
                CellMeasurement &cell);
bool decodeDaemonRound(std::string_view payload,
                       DaemonRoundRecord &round);
bool decodeSupervisorCheckpoint(std::string_view payload,
                                SupervisorCheckpoint &state);

} // namespace vmargin

#endif // VMARGIN_CORE_LEDGER_CODEC_HH
