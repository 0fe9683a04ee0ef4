#include "ledger.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <latch>
#include <limits>
#include <sstream>
#include <utility>

#if __has_include(<sys/mman.h>)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define VMARGIN_LEDGER_HAVE_MMAP 1
#endif

#include "severity.hh"
#include "util/logging.hh"
#include "util/threadpool.hh"

namespace vmargin
{

// ---- framing -----------------------------------------------------

namespace
{

// FNV-1a 32: tiny, deterministic, and strong enough to catch the
// bit rot and torn writes the framing defends against.
constexpr uint32_t kFnvOffset = 2166136261u;
constexpr uint32_t kFnvPrime = 16777619u;

/** Continue an FNV-1a hash over @p bytes. */
uint32_t
fnv1a(uint32_t hash, std::string_view bytes)
{
    for (const char c : bytes)
        hash = (hash ^ static_cast<unsigned char>(c)) * kFnvPrime;
    return hash;
}

} // namespace

uint32_t
ledgerChecksum(std::string_view payload)
{
    return fnv1a(kFnvOffset, payload);
}

void
ledgerChecksums(std::span<const std::string_view> payloads,
                std::span<uint32_t> sums)
{
    // One FNV-1a chain is a serial multiply per byte. The lanes'
    // chains, stepped together over the bytes every lane still has,
    // keep one multiply per lane in flight. A lane whose payload
    // ends takes the next one at once, so payloads of unequal length
    // leave no lane idle; once none is left, each lane finishes its
    // own tail.
    constexpr size_t kLanes = kLedgerChecksumLanes;
    constexpr size_t kIdle = SIZE_MAX;
    std::array<size_t, kLanes> owner;
    std::array<const unsigned char *, kLanes> data{};
    std::array<size_t, kLanes> left{};
    std::array<uint32_t, kLanes> hash{};
    size_t next = 0;
    // Give @p lane the next nonempty payload; false when none is
    // left. Empty payloads on the way get the offset basis.
    const auto refill = [&](size_t lane) {
        while (next < payloads.size() && payloads[next].empty())
            sums[next++] = kFnvOffset;
        if (next == payloads.size()) {
            owner[lane] = kIdle;
            return false;
        }
        owner[lane] = next;
        data[lane] =
            reinterpret_cast<const unsigned char *>(payloads[next].data());
        left[lane] = payloads[next].size();
        hash[lane] = kFnvOffset;
        ++next;
        return true;
    };
    bool all_busy = true;
    for (size_t lane = 0; lane < kLanes; ++lane)
        all_busy = refill(lane) && all_busy;
    while (all_busy) {
        const size_t step = *std::min_element(left.begin(), left.end());
        for (size_t i = 0; i < step; ++i)
            for (size_t lane = 0; lane < kLanes; ++lane)
                hash[lane] = (hash[lane] ^ data[lane][i]) * kFnvPrime;
        for (size_t lane = 0; lane < kLanes; ++lane) {
            data[lane] += step;
            left[lane] -= step;
            if (left[lane] == 0) {
                sums[owner[lane]] = hash[lane];
                all_busy = refill(lane) && all_busy;
            }
        }
    }
    for (size_t lane = 0; lane < kLanes; ++lane)
        if (owner[lane] != kIdle)
            sums[owner[lane]] = fnv1a(
                hash[lane],
                std::string_view(reinterpret_cast<const char *>(data[lane]),
                                 left[lane]));
}

namespace
{

/** First payload byte of every record frame: which record follows. */
enum class FrameKind : uint8_t
{
    Run = 1,
    Commit = 2,
    DaemonRound = 3,
    Supervisor = 4,
    Cell = 5, ///< version 3: a whole cell, in place of Run + Commit
};

void
putU32(std::string &out, uint32_t value)
{
    for (int shift = 0; shift < 32; shift += 8)
        out.push_back(
            static_cast<char>((value >> shift) & 0xffu));
}

void
putU64(std::string &out, uint64_t value)
{
    for (int shift = 0; shift < 64; shift += 8)
        out.push_back(
            static_cast<char>((value >> shift) & 0xffu));
}

void
putF64(std::string &out, double value)
{
    // Bit-exact: the report rebuilt from a replayed cell must equal
    // the freshly measured one byte for byte, so doubles round-trip
    // through their bits, never through decimal text.
    putU64(out, std::bit_cast<uint64_t>(value));
}

void
putString(std::string &out, std::string_view text)
{
    putU32(out, static_cast<uint32_t>(text.size()));
    out.append(text);
}

/** A site-count list: the populated sites in name order, each as
 *  its name and count, as the text form lists them. */
void
putSiteCounts(std::string &out, const sim::SiteCounts &sites)
{
    putU32(out, static_cast<uint32_t>(sites.populated()));
    for (const auto &[site, name] : sim::kSiteNames) {
        if (!sites[site])
            continue;
        putString(out, name);
        putU64(out, sites[site]);
    }
}

/** The little-endian @p Word stored at @p bytes, in one load. */
template <typename Word>
Word
loadLittleEndian(const char *bytes)
{
    Word value;
    std::memcpy(&value, bytes, sizeof(Word));
    if constexpr (std::endian::native == std::endian::big) {
        Word swapped = 0;
        for (size_t i = 0; i < sizeof(Word); ++i, value >>= 8)
            swapped = static_cast<Word>(swapped << 8 | (value & 0xffu));
        value = swapped;
    }
    return value;
}

/** Bounds-checked little-endian reader over one frame payload. */
class PayloadReader
{
  public:
    explicit PayloadReader(std::string_view payload)
        : payload_(payload)
    {
    }

    bool ok() const { return ok_; }

    /** Bytes not yet read. */
    size_t remaining() const { return payload_.size() - pos_; }

    /** The next @p count bytes, in one bounds check; nullptr and not
     *  ok() on a short payload. */
    const char *
    bytes(size_t count)
    {
        if (!require(count))
            return nullptr;
        const char *at = payload_.data() + pos_;
        pos_ += count;
        return at;
    }

    uint8_t
    u8()
    {
        if (!require(1))
            return 0;
        return static_cast<uint8_t>(payload_[pos_++]);
    }

    uint32_t u32() { return word<uint32_t>(); }

    uint64_t u64() { return word<uint64_t>(); }

    double f64() { return std::bit_cast<double>(u64()); }

    /** A putString text, as a view into the payload. */
    std::string_view
    view()
    {
        const uint32_t length = u32();
        if (!require(length))
            return {};
        const std::string_view text = payload_.substr(pos_, length);
        pos_ += length;
        return text;
    }

    std::string str() { return std::string(view()); }

    /** A putSiteCounts list. An entry SiteCounts::addNamed refuses
     *  (unknown or repeated site, zero count) makes the payload
     *  malformed, as a short read does. */
    sim::SiteCounts
    siteCounts()
    {
        sim::SiteCounts sites;
        const uint32_t entries = u32();
        for (uint32_t i = 0; i < entries && ok_; ++i) {
            const std::string_view site = view();
            const uint64_t count = u64();
            if (ok_ && !sites.addNamed(site, count))
                ok_ = false;
        }
        return sites;
    }

  private:
    /** One little-endian word; 0 and not ok() on a short payload. */
    template <typename Word>
    Word
    word()
    {
        if (!require(sizeof(Word)))
            return 0;
        const Word value =
            loadLittleEndian<Word>(payload_.data() + pos_);
        pos_ += sizeof(Word);
        return value;
    }

    bool
    require(size_t bytes)
    {
        if (!ok_ || payload_.size() - pos_ < bytes) {
            ok_ = false;
            return false;
        }
        return true;
    }

    std::string_view payload_;
    size_t pos_ = 0;
    bool ok_ = true;
};

void
putTelemetry(std::string &out, const RecoveryTelemetry &telemetry)
{
    // The cell-level counters the journal has always persisted;
    // fallbackRounds is daemon-scoped, so it does not belong to a
    // cell record.
    putU64(out, telemetry.retries);
    putU64(out, telemetry.backoffEvents);
    putU64(out, telemetry.backoffUsTotal);
    putU64(out, telemetry.watchdogRetries);
    putU64(out, telemetry.lostMeasurements);
}

RecoveryTelemetry
readTelemetry(PayloadReader &reader)
{
    RecoveryTelemetry telemetry;
    telemetry.retries = reader.u64();
    telemetry.backoffEvents = reader.u64();
    telemetry.backoffUsTotal = reader.u64();
    telemetry.watchdogRetries = reader.u64();
    telemetry.lostMeasurements = reader.u64();
    return telemetry;
}

} // namespace

void
appendFrame(std::string &out, std::string_view payload)
{
    putU32(out, static_cast<uint32_t>(payload.size()));
    putU32(out, ledgerChecksum(payload));
    out.append(payload);
}

FrameCursor::Status
FrameCursor::next(std::string_view &payload, uint32_t &checksum)
{
    constexpr size_t kPrefixBytes = 8; ///< u32 length + u32 checksum
    if (pos_ >= bytes_.size())
        return Status::End;
    if (bytes_.size() - pos_ < kPrefixBytes)
        return Status::Truncated;
    const uint32_t length =
        loadLittleEndian<uint32_t>(bytes_.data() + pos_);
    checksum = loadLittleEndian<uint32_t>(bytes_.data() + pos_ + 4);
    if (bytes_.size() - pos_ - kPrefixBytes < length)
        return Status::Truncated;
    payload = bytes_.substr(pos_ + kPrefixBytes, length);
    pos_ += kPrefixBytes + length;
    return Status::Frame;
}

void
encodeRunRecordInto(std::string &out, const RunRecord &record)
{
    out.push_back(static_cast<char>(FrameKind::Run));
    putString(out, record.key.workloadId);
    putU32(out, static_cast<uint32_t>(record.key.core));
    putU32(out, static_cast<uint32_t>(record.key.voltage));
    putU32(out, static_cast<uint32_t>(record.key.frequency));
    putU32(out, record.key.campaign);
    putU32(out, record.key.runIndex);
    putString(out, record.effects.toString());
    putU64(out, record.sdcEvents);
    putU64(out, record.correctedErrors);
    putU64(out, record.uncorrectedErrors);
    putU32(out, static_cast<uint32_t>(record.exitCode));
    putF64(out, record.seconds);
    putF64(out, record.avgIpc);
    putF64(out, record.activityFactor);
    putSiteCounts(out, record.correctedBySite);
    putSiteCounts(out, record.uncorrectedBySite);
}

std::string
encodeRunRecord(const RunRecord &record)
{
    std::string payload;
    encodeRunRecordInto(payload, record);
    return payload;
}

void
encodeCellCommitInto(std::string &out, const CellCommit &commit,
                     uint32_t version)
{
    out.push_back(static_cast<char>(FrameKind::Commit));
    putU64(out, commit.configHash);
    putString(out, commit.workloadId);
    putU32(out, static_cast<uint32_t>(commit.core));
    putU32(out, commit.runCount);
    putU64(out, commit.watchdogInterventions);
    putTelemetry(out, commit.telemetry);
    if (version >= 2) {
        // The chip dimension, appended in version 2 so the version-1
        // layout stays a strict prefix.
        out.push_back(static_cast<char>(commit.chip.corner));
        putU32(out, commit.chip.serial);
    }
}

std::string
encodeCellCommit(const CellCommit &commit)
{
    std::string payload;
    encodeCellCommitInto(payload, commit);
    return payload;
}

namespace
{

/** Bytes of one run in a cell frame before its site counts, at
 *  these offsets: u32 voltage (0), campaign (4) and run index (8);
 *  u8 effect mask (12); u64 SDC events (13), corrected (21) and
 *  uncorrected errors (29); u32 exit code (37); f64 seconds (41),
 *  IPC (49) and activity factor (57); u8 corrected-site mask (65)
 *  and uncorrected-site mask (66). The present sites' u64 counts
 *  follow, corrected first, each list in site order. */
constexpr size_t kCellRunFixedBytes = 3 * 4 + 1 + 3 * 8 + 4 + 3 * 8 + 2;

/** Presence mask of a site list: bit i for sim::ErrorSite i. */
constexpr uint8_t kAllSites = (1u << sim::kErrorSites) - 1;

uint8_t
siteMask(const sim::SiteCounts &sites)
{
    uint8_t mask = 0;
    for (size_t i = 0; i < sim::kErrorSites; ++i)
        if (sites.bySite[i] != 0)
            mask |= static_cast<uint8_t>(1u << i);
    return mask;
}

/** The frequency a cell frame records: its runs' (0 with none). */
MegaHertz
cellFrequency(const CellMeasurement &cell)
{
    return cell.runs.empty() ? 0 : cell.runs.front().key.frequency;
}

/** Panic, naming the field, unless every run of @p cell carries the
 *  cell's workload id, core and frequency and the core is a CoreId
 *  no replay refuses: the one cell no version can hold otherwise. */
void
checkCellRuns(const CellMeasurement &cell)
{
    if (cell.core < 0)
        util::panicf("ledger: cell ", cell.workloadId,
                     " has a negative core ", cell.core);
    const MegaHertz frequency = cellFrequency(cell);
    for (const RunRecord &run : cell.runs) {
        const char *field = nullptr;
        if (run.key.workloadId != cell.workloadId)
            field = "workload id";
        else if (run.key.core != cell.core)
            field = "core";
        else if (run.key.frequency != frequency)
            field = "frequency";
        if (field != nullptr)
            util::panicf("ledger: a run of cell ", cell.workloadId,
                         " core ", cell.core, " has another ", field);
    }
}

} // namespace

void
encodeCellInto(std::string &out, Seed config_hash,
               const CellMeasurement &cell)
{
    checkCellRuns(cell);
    out.push_back(static_cast<char>(FrameKind::Cell));
    putU64(out, config_hash);
    out.push_back(static_cast<char>(cell.chip.corner));
    putU32(out, cell.chip.serial);
    putString(out, cell.workloadId);
    putU32(out, static_cast<uint32_t>(cell.core));
    putU32(out, static_cast<uint32_t>(cellFrequency(cell)));
    putU64(out, cell.watchdogInterventions);
    putTelemetry(out, cell.telemetry);
    putU32(out, static_cast<uint32_t>(cell.runs.size()));
    out.reserve(out.size() + cell.runs.size() * (kCellRunFixedBytes + 16));
    for (const RunRecord &run : cell.runs) {
        putU32(out, static_cast<uint32_t>(run.key.voltage));
        putU32(out, run.key.campaign);
        putU32(out, run.key.runIndex);
        out.push_back(static_cast<char>(run.effects.bits()));
        putU64(out, run.sdcEvents);
        putU64(out, run.correctedErrors);
        putU64(out, run.uncorrectedErrors);
        putU32(out, static_cast<uint32_t>(run.exitCode));
        putF64(out, run.seconds);
        putF64(out, run.avgIpc);
        putF64(out, run.activityFactor);
        out.push_back(static_cast<char>(siteMask(run.correctedBySite)));
        out.push_back(static_cast<char>(siteMask(run.uncorrectedBySite)));
        for (const sim::SiteCounts *sites :
             {&run.correctedBySite, &run.uncorrectedBySite})
            for (const uint64_t count : sites->bySite)
                if (count != 0)
                    putU64(out, count);
    }
}

std::string
encodeCell(Seed config_hash, const CellMeasurement &cell)
{
    std::string payload;
    encodeCellInto(payload, config_hash, cell);
    return payload;
}

namespace
{

/** DaemonRoundRecord bool flags packed into one byte. */
constexpr uint8_t kRoundAbnormal = 1u << 0;
constexpr uint8_t kRoundCrashed = 1u << 1;
constexpr uint8_t kRoundFallback = 1u << 2;
constexpr uint8_t kRoundCanary = 1u << 3;
constexpr uint8_t kRoundPinned = 1u << 4;
/** Every flag bit a session writes. */
constexpr uint8_t kRoundFlags = kRoundAbnormal | kRoundCrashed |
                                kRoundFallback | kRoundCanary |
                                kRoundPinned;

} // namespace

void
encodeDaemonRoundInto(std::string &payload,
                      const DaemonRoundRecord &record)
{
    payload.push_back(static_cast<char>(FrameKind::DaemonRound));
    putU32(payload, static_cast<uint32_t>(record.round));
    putU32(payload, static_cast<uint32_t>(record.voltage));
    putF64(payload, record.energyJoule);
    putF64(payload, record.nominalJoule);
    uint8_t flags = 0;
    flags |= record.anyAbnormal ? kRoundAbnormal : 0;
    flags |= record.crashed ? kRoundCrashed : 0;
    flags |= record.nominalFallback ? kRoundFallback : 0;
    flags |= record.canaryProbe ? kRoundCanary : 0;
    flags |= record.safePinned ? kRoundPinned : 0;
    payload.push_back(static_cast<char>(flags));
    payload.push_back(static_cast<char>(record.fallbackReason));
    putU32(payload, static_cast<uint32_t>(record.reexecutions));
    putU32(payload, static_cast<uint32_t>(record.guardSteps));
}

std::string
encodeDaemonRound(const DaemonRoundRecord &record)
{
    std::string payload;
    encodeDaemonRoundInto(payload, record);
    return payload;
}

std::vector<CoreId>
SupervisorPosture::quarantinedCores() const
{
    std::vector<CoreId> held;
    for (const CoreState &state : cores)
        if (state.quarantined)
            held.push_back(state.core);
    return held;
}

void
encodeSupervisorCheckpointInto(std::string &payload,
                               const SupervisorCheckpoint &state)
{
    payload.push_back(static_cast<char>(FrameKind::Supervisor));
    putU32(payload, state.roundsCompleted);
    putU32(payload, static_cast<uint32_t>(state.legacyClampMv));
    putU32(payload, state.legacyStreak);
    putU64(payload, state.watchdogResets);
    payload.push_back(
        static_cast<char>(state.machineResponsive ? 1 : 0));
    payload.push_back(
        static_cast<char>(state.hasSensorSample ? 1 : 0));
    putF64(payload, state.sensorSample);
    putTelemetry(payload, state.telemetry);
    payload.push_back(
        static_cast<char>(state.supervisorEnabled ? 1 : 0));
    const SupervisorPosture &posture = state.supervisor;
    putU32(payload, static_cast<uint32_t>(posture.guardSteps));
    putU32(payload, static_cast<uint32_t>(posture.peakGuardSteps));
    putU32(payload, posture.cleanStreak);
    payload.push_back(static_cast<char>(posture.clampReason));
    putU64(payload, posture.backoffEvents);
    putU64(payload, posture.narrowEvents);
    putU64(payload, posture.quarantines);
    putU64(payload, posture.readmissions);
    putU64(payload, posture.canaryRounds);
    putU64(payload, posture.canaryFailures);
    putU64(payload, posture.pinnedRounds);
    putU32(payload,
           static_cast<uint32_t>(posture.recentCrashRounds.size()));
    for (const uint32_t round : posture.recentCrashRounds)
        putU32(payload, round);
    putU32(payload, static_cast<uint32_t>(posture.cores.size()));
    for (const auto &core : posture.cores) {
        putU32(payload, static_cast<uint32_t>(core.core));
        payload.push_back(static_cast<char>(core.quarantined ? 1 : 0));
        putF64(payload, core.ceRate);
        putF64(payload, core.ueRate);
        putF64(payload, core.sdcRate);
        putF64(payload, core.crashRate);
        putU64(payload, core.ceEvents);
        putU64(payload, core.ueEvents);
        putU64(payload, core.sdcEvents);
        putU64(payload, core.crashEvents);
        putU32(payload, core.cleanInQuarantine);
    }
}

std::string
encodeSupervisorCheckpoint(const SupervisorCheckpoint &state)
{
    std::string payload;
    encodeSupervisorCheckpointInto(payload, state);
    return payload;
}

namespace
{

// Per-kind decode bodies, positioned after the kind byte: the only
// decoder of record frames. Replay decodes straight into its target
// structs through these. Each returns false on a malformed payload
// (short buffer, a value no session writes, refused site entry) and
// replay skips the frame.

/** The largest core id a u32 field may hold: CoreId's range. */
constexpr uint32_t kMaxCoreId =
    static_cast<uint32_t>(std::numeric_limits<CoreId>::max());

/** The last corner byte a chip field may hold. */
constexpr uint8_t kLastCorner =
    static_cast<uint8_t>(sim::ChipCorner::TSS);

bool
readRunRecord(PayloadReader &reader, RunRecord &run)
{
    run.key.workloadId = reader.str();
    const uint32_t core = reader.u32();
    run.key.core = static_cast<CoreId>(core);
    run.key.voltage = static_cast<MilliVolt>(reader.u32());
    run.key.frequency = static_cast<MegaHertz>(reader.u32());
    run.key.campaign = reader.u32();
    run.key.runIndex = reader.u32();
    // Only the spelling EffectSet::toString writes.
    const auto effects = EffectSet::fromSpelling(reader.view());
    if (!effects || core > kMaxCoreId)
        return false;
    run.effects = *effects;
    run.sdcEvents = reader.u64();
    run.correctedErrors = reader.u64();
    run.uncorrectedErrors = reader.u64();
    run.exitCode = static_cast<int>(reader.u32());
    run.seconds = reader.f64();
    run.avgIpc = reader.f64();
    run.activityFactor = reader.f64();
    run.correctedBySite = reader.siteCounts();
    run.uncorrectedBySite = reader.siteCounts();
    return reader.ok();
}

bool
readCellCommit(PayloadReader &reader, CellCommit &commit,
               uint32_t version)
{
    commit.configHash = reader.u64();
    commit.workloadId = reader.str();
    const uint32_t core = reader.u32();
    commit.core = static_cast<CoreId>(core);
    commit.runCount = reader.u32();
    commit.watchdogInterventions = reader.u64();
    commit.telemetry = readTelemetry(reader);
    uint8_t corner = 0;
    if (version >= 2) {
        corner = reader.u8();
        commit.chip.corner = static_cast<sim::ChipCorner>(corner);
        commit.chip.serial = reader.u32();
    }
    // Version 1 predates the chip dimension: the commit keeps the
    // default ChipRef and the replay loop maps it onto the implicit
    // chip the reader supplied.
    return reader.ok() && core <= kMaxCoreId && corner <= kLastCorner;
}

/**
 * A version-3 cell frame: its key and commit fields into @p commit,
 * its runs into @p runs, reserved at their exact count. Each run's
 * fixed part is read with one bounds check and its site counts with
 * one more. Refused as well: a corner, core, effect mask or site
 * mask no session writes, a zero site count, a run count the payload
 * cannot hold, a frequency on a cell with no runs, and bytes after
 * the last run — so every accepted frame is what encodeCellInto
 * writes for the cell it yields.
 */
bool
readCell(PayloadReader &reader, CellCommit &commit,
         std::vector<RunRecord> &runs)
{
    commit.configHash = reader.u64();
    const uint8_t corner = reader.u8();
    commit.chip.corner = static_cast<sim::ChipCorner>(corner);
    commit.chip.serial = reader.u32();
    commit.workloadId = reader.str();
    const uint32_t core = reader.u32();
    commit.core = static_cast<CoreId>(core);
    const auto frequency = static_cast<MegaHertz>(reader.u32());
    commit.watchdogInterventions = reader.u64();
    commit.telemetry = readTelemetry(reader);
    commit.runCount = reader.u32();
    if (!reader.ok() || corner > kLastCorner || core > kMaxCoreId ||
        commit.runCount > reader.remaining() / kCellRunFixedBytes ||
        (commit.runCount == 0 && frequency != 0))
        return false;
    runs.reserve(commit.runCount);
    for (uint32_t r = 0; r < commit.runCount; ++r) {
        const char *fixed = reader.bytes(kCellRunFixedBytes);
        if (fixed == nullptr)
            return false;
        const auto effects = static_cast<uint8_t>(fixed[12]);
        const auto ce_sites = static_cast<uint8_t>(fixed[65]);
        const auto ue_sites = static_cast<uint8_t>(fixed[66]);
        if (effects >= kEffectSets || (ce_sites | ue_sites) > kAllSites)
            return false;
        RunRecord &run = runs.emplace_back();
        run.key.workloadId = commit.workloadId;
        run.key.core = commit.core;
        run.key.frequency = frequency;
        run.key.voltage =
            static_cast<MilliVolt>(loadLittleEndian<uint32_t>(fixed));
        run.key.campaign = loadLittleEndian<uint32_t>(fixed + 4);
        run.key.runIndex = loadLittleEndian<uint32_t>(fixed + 8);
        run.effects = EffectSet::fromBits(effects);
        run.sdcEvents = loadLittleEndian<uint64_t>(fixed + 13);
        run.correctedErrors = loadLittleEndian<uint64_t>(fixed + 21);
        run.uncorrectedErrors = loadLittleEndian<uint64_t>(fixed + 29);
        run.exitCode =
            static_cast<int>(loadLittleEndian<uint32_t>(fixed + 37));
        run.seconds =
            std::bit_cast<double>(loadLittleEndian<uint64_t>(fixed + 41));
        run.avgIpc =
            std::bit_cast<double>(loadLittleEndian<uint64_t>(fixed + 49));
        run.activityFactor =
            std::bit_cast<double>(loadLittleEndian<uint64_t>(fixed + 57));
        const char *counts = reader.bytes(
            8 * static_cast<size_t>(std::popcount(ce_sites) +
                                    std::popcount(ue_sites)));
        if (counts == nullptr)
            return false;
        for (const auto &[sites, mask] :
             {std::pair{&run.correctedBySite, ce_sites},
              std::pair{&run.uncorrectedBySite, ue_sites}})
            for (size_t i = 0; i < sim::kErrorSites; ++i)
                if ((mask >> i) & 1u) {
                    const auto count = loadLittleEndian<uint64_t>(counts);
                    counts += 8;
                    if (count == 0)
                        return false;
                    sites->bySite[i] = count;
                }
    }
    return reader.remaining() == 0;
}

bool
readDaemonRound(PayloadReader &reader, DaemonRoundRecord &round)
{
    round.round = static_cast<int>(reader.u32());
    round.voltage = static_cast<MilliVolt>(reader.u32());
    round.energyJoule = reader.f64();
    round.nominalJoule = reader.f64();
    const uint8_t flags = reader.u8();
    round.anyAbnormal = (flags & kRoundAbnormal) != 0;
    round.crashed = (flags & kRoundCrashed) != 0;
    round.nominalFallback = (flags & kRoundFallback) != 0;
    round.canaryProbe = (flags & kRoundCanary) != 0;
    round.safePinned = (flags & kRoundPinned) != 0;
    round.fallbackReason = reader.u8();
    round.reexecutions = static_cast<int>(reader.u32());
    round.guardSteps = static_cast<int>(reader.u32());
    // No session writes a flag bit past the last one, a reason code
    // past the last one, or a negative guard.
    constexpr auto kLastFallback =
        static_cast<uint8_t>(FallbackReason::MachineUnresponsive);
    return reader.ok() && (flags & ~kRoundFlags) == 0 &&
           round.fallbackReason <= kLastFallback &&
           round.guardSteps >= 0;
}

bool
readSupervisorCheckpoint(PayloadReader &reader,
                         SupervisorCheckpoint &state)
{
    state.roundsCompleted = reader.u32();
    state.legacyClampMv = static_cast<MilliVolt>(reader.u32());
    state.legacyStreak = reader.u32();
    state.watchdogResets = reader.u64();
    state.machineResponsive = reader.u8() != 0;
    state.hasSensorSample = reader.u8() != 0;
    state.sensorSample = reader.f64();
    state.telemetry = readTelemetry(reader);
    state.supervisorEnabled = reader.u8() != 0;
    SupervisorPosture &posture = state.supervisor;
    posture.guardSteps = static_cast<int>(reader.u32());
    posture.peakGuardSteps = static_cast<int>(reader.u32());
    // The guard only widens from 0 and the peak follows it.
    if (posture.guardSteps < 0 ||
        posture.peakGuardSteps < posture.guardSteps)
        return false;
    posture.cleanStreak = reader.u32();
    const uint8_t clamp = reader.u8();
    if (clamp > static_cast<uint8_t>(ClampReason::WatchdogExhausted))
        return false;
    posture.clampReason = static_cast<ClampReason>(clamp);
    posture.backoffEvents = reader.u64();
    posture.narrowEvents = reader.u64();
    posture.quarantines = reader.u64();
    posture.readmissions = reader.u64();
    posture.canaryRounds = reader.u64();
    posture.canaryFailures = reader.u64();
    posture.pinnedRounds = reader.u64();
    // The crash window holds rounds already served.
    const uint32_t crashes = reader.u32();
    for (uint32_t i = 0; i < crashes && reader.ok(); ++i) {
        const uint32_t round = reader.u32();
        if (reader.ok() && round >= state.roundsCompleted)
            return false;
        posture.recentCrashRounds.push_back(round);
    }
    const uint32_t cores = reader.u32();
    for (uint32_t i = 0; i < cores && reader.ok(); ++i) {
        // The posture's core list is a sorted set of CoreIds: a
        // repeated, descending or out-of-range id, or a quarantine
        // byte no session writes, refuses the whole record.
        const uint32_t id = reader.u32();
        const uint8_t quarantined = reader.u8();
        if (id > kMaxCoreId || quarantined > 1 ||
            (!posture.cores.empty() &&
             static_cast<CoreId>(id) <= posture.cores.back().core))
            return false;
        SupervisorPosture::CoreState &core =
            posture.cores.emplace_back();
        core.core = static_cast<CoreId>(id);
        core.quarantined = quarantined != 0;
        core.ceRate = reader.f64();
        core.ueRate = reader.f64();
        core.sdcRate = reader.f64();
        core.crashRate = reader.f64();
        // An EWMA of event counts is never negative (nor NaN).
        for (const double rate :
             {core.ceRate, core.ueRate, core.sdcRate, core.crashRate})
            if (!(rate >= 0.0))
                return false;
        core.ceEvents = reader.u64();
        core.ueEvents = reader.u64();
        core.sdcEvents = reader.u64();
        core.crashEvents = reader.u64();
        core.cleanInQuarantine = reader.u32();
    }
    return reader.ok();
}

} // namespace

// ---- RunLedger ---------------------------------------------------

namespace
{

constexpr size_t kMagicBytes = 4;
constexpr size_t kFramePrefixBytes = 8; ///< u32 length + u32 checksum

/** Header frame payload: framing version + application header. */
std::string
encodeHeader(const std::string &app_header)
{
    std::string payload;
    putU32(payload, kLedgerVersion);
    putString(payload, app_header);
    return payload;
}

/**
 * Bulk loader: the whole ledger file in one buffer. Large regular
 * files are mmap()ed (the replay cursor then walks the page cache
 * directly); small ones are read with one bulk read; non-regular
 * files fall back to a portable stream read. load() returns false
 * when the file cannot be opened — the fresh-ledger case.
 */
class LedgerFileBuffer
{
  public:
    LedgerFileBuffer() = default;
    ~LedgerFileBuffer() { release(); }
    LedgerFileBuffer(const LedgerFileBuffer &) = delete;
    LedgerFileBuffer &operator=(const LedgerFileBuffer &) = delete;

    bool
    load(const std::string &path)
    {
#ifdef VMARGIN_LEDGER_HAVE_MMAP
        // A map only pays off past a few pages; below that one read
        // into an owned buffer is cheaper than the mmap/munmap pair.
        constexpr size_t kMmapThreshold = 256u * 1024u;
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd >= 0) {
            struct stat st
            {
            };
            if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
                const size_t size =
                    static_cast<size_t>(st.st_size);
                if (size >= kMmapThreshold) {
                    void *map = ::mmap(nullptr, size, PROT_READ,
                                       MAP_PRIVATE, fd, 0);
                    ::close(fd);
                    if (map != MAP_FAILED) {
                        map_ = map;
                        mapSize_ = size;
                        bytes_ = std::string_view(
                            static_cast<const char *>(map), size);
                        return true;
                    }
                    // mmap refused; fall through to the stream read.
                } else {
                    owned_.resize(size);
                    size_t off = 0;
                    while (off < size) {
                        const ssize_t got =
                            ::read(fd, owned_.data() + off,
                                   size - off);
                        if (got <= 0)
                            break; // shrank underneath us: replay
                                   // treats the short tail as torn
                        off += static_cast<size_t>(got);
                    }
                    ::close(fd);
                    owned_.resize(off);
                    bytes_ = owned_;
                    return true;
                }
            } else {
                ::close(fd); // pipe/device: portable path below
            }
        } else if (errno == ENOENT) {
            return false;
        }
#endif
        std::ifstream in(path, std::ios::binary);
        if (!in)
            return false;
        std::ostringstream buffer;
        buffer << in.rdbuf();
        owned_ = std::move(buffer).str();
        bytes_ = owned_;
        return true;
    }

    std::string_view bytes() const { return bytes_; }

  private:
    void
    release()
    {
#ifdef VMARGIN_LEDGER_HAVE_MMAP
        if (map_ != nullptr) {
            ::munmap(map_, mapSize_);
            map_ = nullptr;
            mapSize_ = 0;
        }
#endif
    }

    std::string owned_;
    std::string_view bytes_;
#ifdef VMARGIN_LEDGER_HAVE_MMAP
    void *map_ = nullptr;
    size_t mapSize_ = 0;
#endif
};

} // namespace

// ---- LedgerWriteOptions / LedgerWriter ---------------------------

void
LedgerWriteOptions::validate(const std::string &name) const
{
    if (flushEveryCells < 1)
        util::fatalError(name + ": flushEveryCells must be >= 1, " +
                         "got " + std::to_string(flushEveryCells));
    if (flushIntervalMs < 0)
        util::fatalError(name + ": flushIntervalMs must be >= 0, " +
                         "got " + std::to_string(flushIntervalMs));
}

LedgerWriter::LedgerWriter(std::string path, std::string name)
    : path_(std::move(path)), name_(std::move(name)),
      statAppendBytes_(
          obs::Registry::global().counter("ledger.append_bytes")),
      statAppendUnits_(
          obs::Registry::global().counter("ledger.append_units")),
      statFlushBatches_(obs::Registry::global().counter(
          "ledger.flush_batches", obs::Stability::Sched))
{
}

LedgerWriter::~LedgerWriter() { close(); }

void
LedgerWriter::create(std::string_view initial_bytes)
{
    close();
    file_ = std::fopen(path_.c_str(), "wb");
    if (file_ == nullptr)
        util::fatalError(name_ + ": cannot create '" + path_ +
                         "': " + std::strerror(errno));
    committedBytes_ = 0;
    pending_.assign(initial_bytes.data(), initial_bytes.size());
    pendingUnits_ = 0;
    lastFlush_ = std::chrono::steady_clock::now();
    flush(); // the binding header is durable before any record
}

void
LedgerWriter::openAppend(uint64_t committed_bytes)
{
    close();
    file_ = std::fopen(path_.c_str(), "ab");
    if (file_ == nullptr)
        util::fatalError(name_ + ": cannot append to '" + path_ +
                         "': " + std::strerror(errno));
#ifdef VMARGIN_LEDGER_HAVE_MMAP
    // Cut the torn tail a killed writer left behind so appended
    // frames land on a frame boundary; replay already refused those
    // bytes. (Append-mode writes go to the new end of file.)
    struct stat st
    {
    };
    if (::fstat(::fileno(file_), &st) == 0 && S_ISREG(st.st_mode) &&
        static_cast<uint64_t>(st.st_size) > committed_bytes) {
        if (::ftruncate(::fileno(file_),
                        static_cast<off_t>(committed_bytes)) != 0)
            util::fatalError(
                name_ + ": cannot truncate '" + path_ +
                "' to byte offset " +
                std::to_string(committed_bytes) + ": " +
                std::strerror(errno));
    }
#endif
    committedBytes_ = committed_bytes;
    pending_.clear();
    pendingUnits_ = 0;
    lastFlush_ = std::chrono::steady_clock::now();
}

void
LedgerWriter::append(std::string_view bytes,
                     const LedgerWriteOptions &options)
{
    if (file_ == nullptr)
        util::fatalError(name_ + ": append to '" + path_ +
                         "' before open");
    pending_.append(bytes.data(), bytes.size());
    ++pendingUnits_;
    statAppendBytes_.inc(bytes.size());
    statAppendUnits_.inc();
    bool due = pendingUnits_ >=
               static_cast<size_t>(options.flushEveryCells);
    if (!due && options.flushIntervalMs > 0)
        due = std::chrono::steady_clock::now() - lastFlush_ >=
              std::chrono::milliseconds(options.flushIntervalMs);
    if (due)
        flush();
}

void
LedgerWriter::flush()
{
    if (file_ == nullptr || pending_.empty())
        return;
    const size_t wrote =
        std::fwrite(pending_.data(), 1, pending_.size(), file_);
    if (wrote != pending_.size() || std::fflush(file_) != 0)
        util::fatalError(name_ + ": write to '" + path_ +
                         "' failed at byte offset " +
                         std::to_string(committedBytes_ + wrote) +
                         ": " + std::strerror(errno));
    committedBytes_ += pending_.size();
    pending_.clear();
    pendingUnits_ = 0;
    lastFlush_ = std::chrono::steady_clock::now();
    statFlushBatches_.inc();
}

void
LedgerWriter::close()
{
    if (file_ == nullptr)
        return;
    flush();
    std::FILE *file = file_;
    file_ = nullptr;
    if (std::fclose(file) != 0)
        util::fatalError(name_ + ": close of '" + path_ +
                         "' failed at byte offset " +
                         std::to_string(committedBytes_) + ": " +
                         std::strerror(errno));
}

RunLedger::RunLedger(std::string path, std::string name,
                     LedgerWriteOptions options)
    : path_(std::move(path)), name_(std::move(name)),
      options_(options), writer_(path_, name_)
{
    if (path_.empty())
        util::fatalError(name_ + ": empty path");
    options_.validate(name_);
}

RunLedger::~RunLedger()
{
    std::lock_guard<std::mutex> lock(mutex_);
    writer_.close();
}

void
RunLedger::flush()
{
    std::lock_guard<std::mutex> lock(mutex_);
    writer_.flush();
}

namespace
{

/** What the verify-and-decode pass found in one record frame. */
enum class FrameVerdict : uint8_t
{
    Corrupt,   ///< checksum mismatch
    Malformed, ///< intact cell, run or commit frame that did not
               ///< decode, or one of the other framing version
    Run,       ///< intact run, decoded into its unit's runs
    Commit,    ///< intact commit, decoded into its unit's commit
    Cell,      ///< intact cell, decoded into its unit's commit and runs
    Other,     ///< intact frame of another kind, decoded in order
};

/**
 * One commit unit of a replayed file. In a version-3 file each
 * record frame is a unit of its own. In an older one a unit is the
 * record frames up to and including one whose first payload byte
 * reads Commit or Supervisor (or the file's last frame). That byte
 * is read before any checksum, so it only partitions the work; each
 * frame's verdict is its own.
 */
struct CommitUnit
{
    size_t first = 0;     ///< index of its first frame
    size_t end = 0;       ///< one past its last frame
    size_t endByte = 0;   ///< file offset one past its last frame
    size_t runFrames = 0; ///< its frames whose first byte reads Run
    std::vector<RunRecord> runs; ///< its decoded runs, in file order
    CellCommit commit;           ///< its decoded commit or cell key
};

/** Every frame of a replayed file, the header frame first. */
struct ReplayFrames
{
    std::vector<std::string_view> payloads; ///< views into the file
    std::vector<uint32_t> recorded;         ///< checksums on disk
    std::vector<uint32_t> computed;         ///< checksums of payloads
    std::vector<FrameVerdict> verdicts;
};

/**
 * Verify and decode @p units: the checksums of all their frames in
 * one ledgerChecksums() call, then each intact cell frame decoded
 * into its unit's commit and runs, each intact run frame into its
 * unit's runs (reserved from the unit's run-frame count, so the
 * vector never grows) and each intact commit frame into its unit's
 * commit. A version-3 file holds cells in cell frames only, an older
 * one in run and commit frames only. Writes only these units and
 * their frames' slots — no warning, counter or index — so disjoint
 * ranges of units verify concurrently.
 */
void
verifyUnits(ReplayFrames &frames, std::span<CommitUnit> units,
            uint32_t version)
{
    if (units.empty())
        return;
    const size_t first = units.front().first;
    const size_t count = units.back().end - first;
    ledgerChecksums(std::span(frames.payloads).subspan(first, count),
                    std::span(frames.computed).subspan(first, count));
    for (CommitUnit &unit : units) {
        unit.runs.reserve(unit.runFrames);
        for (size_t f = unit.first; f < unit.end; ++f) {
            FrameVerdict &verdict = frames.verdicts[f];
            if (frames.computed[f] != frames.recorded[f]) {
                verdict = FrameVerdict::Corrupt;
                continue;
            }
            PayloadReader reader(frames.payloads[f]);
            const auto kind = static_cast<FrameKind>(reader.u8());
            const bool cell_frames = version >= 3;
            if (kind == FrameKind::Cell && cell_frames) {
                // The unit is this one frame.
                if (readCell(reader, unit.commit, unit.runs)) {
                    verdict = FrameVerdict::Cell;
                } else {
                    unit.runs = {};
                    verdict = FrameVerdict::Malformed;
                }
            } else if (kind == FrameKind::Run && !cell_frames) {
                if (readRunRecord(reader, unit.runs.emplace_back())) {
                    verdict = FrameVerdict::Run;
                } else {
                    unit.runs.pop_back();
                    verdict = FrameVerdict::Malformed;
                }
            } else if (kind == FrameKind::Commit && !cell_frames) {
                verdict = readCellCommit(reader, unit.commit, version)
                              ? FrameVerdict::Commit
                              : FrameVerdict::Malformed;
            } else if (kind == FrameKind::Cell ||
                       kind == FrameKind::Run ||
                       kind == FrameKind::Commit) {
                verdict = FrameVerdict::Malformed;
            } else {
                verdict = FrameVerdict::Other;
            }
        }
    }
}

} // namespace

void
RunLedger::open(const std::string &app_header,
                const std::string &mismatch_hint,
                ChipRef implicit_chip, util::ThreadPool *pool)
{
    entries_.clear();
    byKey_.clear();
    daemonRounds_.clear();
    writer_.close();
    fileVersion_ = kLedgerVersion;

    LedgerFileBuffer file;
    if (!file.load(path_)) {
        // Fresh ledger: create it with the magic and binding header.
        std::string bytes(kLedgerMagic, kMagicBytes);
        appendFrame(bytes, encodeHeader(app_header));
        writer_.create(bytes);
        return;
    }
    const std::string_view bytes = file.bytes();

    if (bytes.size() < kMagicBytes ||
        bytes.compare(0, kMagicBytes, kLedgerMagic, kMagicBytes) != 0)
        util::fatalError(name_ + ": '" + path_ +
                         "' is not a vmargin ledger file");

    // Replay runs in three passes. (1) One walk with the zero-copy
    // cursor finds every whole frame (payloads are views into the
    // bulk buffer), checks the header frame and groups the record
    // frames into commit units. (2) The units' checksums and their
    // cell, run and commit frames are verified and decoded, on the
    // pool's workers when there are two or more. (3) The verdicts are
    // replayed in file order on this thread, so every skip, refusal,
    // warning, counter, first-write-wins decision and committed-
    // prefix cut falls where a frame-by-frame replay puts it. The
    // header frame is mandatory and versioned; record frames
    // tolerate corruption (skip) and truncation (stop): the tail a
    // killed process was writing is re-run, not trusted.
    // Replay telemetry: what the file contained is a pure function
    // of what previous sessions wrote, so all three are exact-class.
    obs::Counter &statReplayFrames =
        obs::Registry::global().counter("ledger.replay_frames");
    obs::Counter &statReplaySkipped =
        obs::Registry::global().counter("ledger.replay_skipped");
    obs::Counter &statTornTails = obs::Registry::global().counter(
        "ledger.torn_tail_truncations");

    // ---- pass 1: walk the frames, check the header ----------------
    ReplayFrames frames;
    FrameCursor cursor(bytes, kMagicBytes);
    FrameCursor::Status status = FrameCursor::Status::Frame;
    {
        std::string_view payload;
        uint32_t checksum = 0;
        while ((status = cursor.next(payload, checksum)) ==
               FrameCursor::Status::Frame) {
            frames.payloads.push_back(payload);
            frames.recorded.push_back(checksum);
        }
    }
    const size_t frame_count = frames.payloads.size();
    statReplayFrames.inc(frame_count);
    // File offset one past frame @p f.
    const auto endOf = [&](size_t f) {
        const std::string_view payload = frames.payloads[f];
        return static_cast<size_t>(payload.data() - bytes.data()) +
               payload.size();
    };

    // Byte offset one past the last *committed unit* (header frame,
    // commit frame, accepted checkpoint). Everything after it —
    // torn frames, but also complete-but-uncommitted record frames
    // a killed batch left behind — is the untrusted tail the writer
    // cuts before appending: run frames dangling without their
    // commit would otherwise poison the next appended cell's run
    // count on a later replay.
    size_t committed = kMagicBytes;

    if (frame_count > 0) {
        // The first frame binds the file: framing version and the
        // application header must both match.
        if (ledgerChecksum(frames.payloads[0]) != frames.recorded[0])
            util::fatalError(name_ + ": '" + path_ +
                             "' has a corrupt header frame");
        PayloadReader reader(frames.payloads[0]);
        const uint32_t version = reader.u32();
        if (version < kLedgerMinVersion || version > kLedgerVersion)
            util::fatalError(
                name_ + ": '" + path_ + "' uses ledger version " +
                std::to_string(version) + ", this build reads " +
                std::to_string(kLedgerMinVersion) + " through " +
                std::to_string(kLedgerVersion) +
                "; refusing to mix versions");
        fileVersion_ = version;
        const std::string header = reader.str();
        if (!reader.ok())
            util::fatalError(name_ + ": '" + path_ +
                             "' has a malformed header frame");
        if (header != app_header)
            util::fatalError(name_ + ": '" + path_ + "' " +
                             (mismatch_hint.empty()
                                  ? std::string("header mismatch")
                                  : mismatch_hint));
        committed = endOf(0);
    }

    // Group the record frames into commit units by their first
    // byte, unverified: a hint that partitions the work. A version-3
    // file needs no grouping: each frame is a unit.
    std::vector<CommitUnit> units;
    size_t cell_units = 0;
    {
        const bool frame_units = fileVersion_ >= 3;
        size_t first = 1;
        size_t run_frames = 0;
        for (size_t f = 1; f < frame_count; ++f) {
            const std::string_view payload = frames.payloads[f];
            const auto hint = payload.empty()
                                  ? FrameKind{}
                                  : static_cast<FrameKind>(payload[0]);
            run_frames += hint == FrameKind::Run;
            cell_units += hint == FrameKind::Commit ||
                          hint == FrameKind::Cell;
            if (!frame_units && hint != FrameKind::Commit &&
                hint != FrameKind::Supervisor && f + 1 < frame_count)
                continue;
            CommitUnit &unit = units.emplace_back();
            unit.first = std::exchange(first, f + 1);
            unit.end = f + 1;
            unit.endByte = endOf(f);
            unit.runFrames = std::exchange(run_frames, 0);
        }
    }

    // ---- pass 2: verify and decode --------------------------------
    // The units are dealt in fixed, contiguous, byte-balanced ranges,
    // at most one per worker, each task waiting at a latch until all
    // have started (the merge's deal): each worker's malloc arena
    // then holds the same runs on every replay of the same file.
    frames.computed.resize(frame_count);
    frames.verdicts.resize(frame_count);
    const uint32_t version = fileVersion_;
    const size_t tasks = std::min(
        pool == nullptr ? size_t{1}
                        : static_cast<size_t>(pool->workerCount()),
        units.size());
    if (tasks < 2) {
        verifyUnits(frames, units, version);
    } else {
        // Task t verifies units [bounds[t], bounds[t + 1]): those
        // ending in its share of the record bytes.
        const size_t begin_byte = endOf(0);
        const size_t record_bytes = units.back().endByte - begin_byte;
        std::vector<size_t> bounds{0};
        for (size_t t = 1; t < tasks; ++t) {
            const size_t target =
                begin_byte + record_bytes * t / tasks;
            bounds.push_back(static_cast<size_t>(
                std::partition_point(units.begin(), units.end(),
                                     [&](const CommitUnit &unit) {
                                         return unit.endByte <= target;
                                     }) -
                units.begin()));
        }
        bounds.push_back(units.size());
        // The pool is idle and tasks <= workers, so every task
        // reaches the latch.
        std::latch started(static_cast<std::ptrdiff_t>(tasks));
        for (size_t t = 0; t < tasks; ++t)
            pool->submit([&, t] {
                started.arrive_and_wait();
                verifyUnits(frames,
                            std::span(units).subspan(
                                bounds[t], bounds[t + 1] - bounds[t]),
                            version);
            });
        pool->wait();
    }

    // ---- pass 3: the verdicts, in file order ----------------------
    CellMeasurement pending;
    bool pending_corrupt = false;
    const auto resetPending = [&]() {
        pending = CellMeasurement{};
        pending_corrupt = false;
    };

    // Daemon-round pairing state: a round frame awaits its
    // checkpoint frame (the commit). Any break in the sequence —
    // corruption, a gap, an out-of-order round — poisons the rest
    // of the daemon stream: resuming past a hole would continue
    // from a wrong trajectory, so everything after it is re-run.
    bool daemon_poisoned = false;
    bool have_pending_round = false;
    DaemonRoundRecord pending_round;

    const auto poisonDaemon = [&](const char *why) {
        if (!daemon_poisoned)
            util::warnf(name_, ": '", path_, "' ", why,
                        "; later daemon rounds will be re-run");
        daemon_poisoned = true;
        have_pending_round = false;
    };

    // A record frame was lost (checksum mismatch or malformed). With
    // runs pending, the lost frame was one of them or the commit
    // that ended them: drop them, so a cell missing a run falls
    // short of its commit's count and is refused, while after a
    // lost commit the next cell starts clean. With nothing pending,
    // the lost frame may have been the next cell's first run:
    // poison that cell so its commit is refused.
    const auto losePendingFrame = [&]() {
        if (pending.runs.empty())
            pending_corrupt = true;
        else
            resetPending();
    };
    // Keep a cell unless its key is already present (first
    // occurrence wins; racing sessions may append the same cell
    // twice).
    const auto keepCell = [&](CellCommit &commit,
                              std::vector<RunRecord> &&runs) {
        if (!byKey_
                 .emplace(Key{commit.configHash, commit.chip.key(),
                              commit.workloadId, commit.core},
                          entries_.size())
                 .second)
            return;
        Entry &entry = entries_.emplace_back();
        entry.configHash = commit.configHash;
        CellMeasurement &cell = entry.cell;
        cell.chip = commit.chip;
        cell.workloadId = std::move(commit.workloadId);
        cell.core = commit.core;
        cell.runs = std::move(runs);
        cell.watchdogInterventions = commit.watchdogInterventions;
        cell.telemetry = commit.telemetry;
    };
    const auto markMalformed = [&]() {
        statReplaySkipped.inc();
        util::warnf(name_, ": '", path_,
                    "' malformed record; skipping it");
        losePendingFrame();
        poisonDaemon("malformed record");
    };

    // Replay frame @p f of @p unit, whose next decoded run is
    // unit.runs[@p next_run].
    const auto replayFrame = [&](size_t f, CommitUnit &unit,
                                 size_t &next_run) {
        switch (frames.verdicts[f]) {
        case FrameVerdict::Corrupt:
            statReplaySkipped.inc();
            util::warnf(name_, ": '", path_,
                        "' frame checksum mismatch; skipping the "
                        "record");
            // The pending cell lost a frame; the daemon stream loses
            // its sequence guarantee too.
            losePendingFrame();
            poisonDaemon("frame checksum mismatch");
            return;
        case FrameVerdict::Malformed:
            markMalformed();
            return;
        case FrameVerdict::Run:
            pending.runs.push_back(std::move(unit.runs[next_run++]));
            return;
        case FrameVerdict::Commit: {
            // Commit: accept the pending cell only when intact —
            // the run count matches, it is not poisoned (see
            // losePendingFrame), and every run is of the commit's
            // workload and core, as every session writes them.
            CellCommit &commit = unit.commit;
            if (fileVersion_ < 2)
                // Legacy file: every cell belongs to the implicit
                // single chip the caller supplied.
                commit.chip = implicit_chip;
            const bool cell_intact =
                !pending_corrupt &&
                pending.runs.size() == commit.runCount &&
                std::all_of(pending.runs.begin(), pending.runs.end(),
                            [&](const RunRecord &run) {
                                return run.key.core == commit.core &&
                                       run.key.workloadId ==
                                           commit.workloadId;
                            });
            if (cell_intact) {
                // A cell gathered frame by frame (only in a damaged
                // or hand-built file) may hold spare capacity.
                pending.runs.shrink_to_fit();
                keepCell(commit, std::move(pending.runs));
            }
            resetPending();
            // The unit ended here even when the cell was refused (a
            // poisoned or duplicate cell is simply re-run); appended
            // frames after this boundary stand on their own.
            committed = endOf(f);
            return;
        }
        case FrameVerdict::Cell:
            // A whole cell under one checksum: nothing pending can
            // belong to it.
            keepCell(unit.commit, std::move(unit.runs));
            committed = endOf(f);
            return;
        case FrameVerdict::Other:
            break;
        }

        // Daemon frames are few and small: decoded here, in order.
        PayloadReader reader(frames.payloads[f]);
        const auto kind = static_cast<FrameKind>(reader.u8());

        if (kind == FrameKind::DaemonRound) {
            DaemonRoundRecord round;
            if (!readDaemonRound(reader, round)) {
                markMalformed();
                return;
            }
            if (daemon_poisoned)
                return;
            if (have_pending_round) {
                poisonDaemon("daemon round without its checkpoint");
                return;
            }
            if (round.round !=
                static_cast<int>(daemonRounds_.size())) {
                poisonDaemon("daemon round out of sequence");
                return;
            }
            pending_round = round;
            have_pending_round = true;
            return;
        }

        if (kind == FrameKind::Supervisor) {
            SupervisorCheckpoint state;
            if (!readSupervisorCheckpoint(reader, state)) {
                markMalformed();
                return;
            }
            if (daemon_poisoned)
                return;
            if (!have_pending_round ||
                state.roundsCompleted !=
                    static_cast<uint32_t>(pending_round.round) + 1) {
                poisonDaemon(
                    "supervisor checkpoint out of sequence");
                return;
            }
            daemonRounds_.push_back(
                DaemonRoundEntry{pending_round, std::move(state)});
            have_pending_round = false;
            committed = endOf(f);
            return;
        }

        markMalformed(); // unknown record kind
    };

    entries_.reserve(cell_units);
    for (CommitUnit &unit : units) {
        size_t next_run = 0;
        size_t f = unit.first;
        // A clean unit — decoded runs, then its decoded commit —
        // hands its exact-size vector to an empty pending cell
        // whole: the same runs its frames would push, in order.
        if (pending.runs.empty() &&
            unit.runs.size() + 1 == unit.end - unit.first &&
            frames.verdicts[unit.end - 1] == FrameVerdict::Commit) {
            pending.runs = std::move(unit.runs);
            f = unit.end - 1;
        }
        for (; f < unit.end; ++f)
            replayFrame(f, unit, next_run);
    }

    if (status == FrameCursor::Status::Truncated) {
        statTornTails.inc();
        if (bytes.size() - cursor.offset() < kFramePrefixBytes)
            util::warnf(name_, ": '", path_,
                        "' ends in a truncated frame prefix; "
                        "discarding the tail");
        else
            util::warnf(name_, ": '", path_,
                        "' ends in a truncated record; "
                        "discarding the tail");
    }
    if (frame_count == 0)
        util::fatalError(name_ + ": '" + path_ +
                         "' has no header frame");

    // Keep the file open for the ledger's lifetime, positioned on
    // the last committed-unit boundary (the torn tail and any
    // dangling uncommitted frames are cut so appended frames
    // realign the framing).
    writer_.openAppend(committed);
}

const CellMeasurement *
RunLedger::find(Seed config_hash, const ChipRef &chip,
                const std::string &workload_id, CoreId core) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it =
        byKey_.find(Key{config_hash, chip.key(), workload_id, core});
    if (it == byKey_.end() || it->second == kNotKept)
        return nullptr;
    return &entries_[it->second].cell;
}

std::optional<CellMeasurement>
RunLedger::take(Seed config_hash, const ChipRef &chip,
                const std::string &workload_id, CoreId core)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it =
        byKey_.find(Key{config_hash, chip.key(), workload_id, core});
    if (it == byKey_.end() || it->second == kNotKept)
        return std::nullopt;
    const size_t index = std::exchange(it->second, kNotKept);
    return std::exchange(entries_[index].cell, {});
}

size_t
RunLedger::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return byKey_.size();
}

namespace
{

/**
 * Per-thread scratch for record encoding: frames accumulates the
 * framed commit unit, payload holds one record's payload before
 * framing. thread_local so concurrent workers encode without
 * contending, and the capacity survives across appends — steady
 * state allocates nothing.
 */
struct EncodeScratch
{
    std::string frames;
    std::string payload;

    void
    addFrame(const auto &record, auto encode_into)
    {
        payload.clear();
        encode_into(payload, record);
        appendFrame(frames, payload);
    }
};

EncodeScratch &
encodeScratch()
{
    thread_local EncodeScratch scratch;
    scratch.frames.clear();
    return scratch;
}

/** A version-1 or version-2 cell: its run frames, then its commit
 *  frame at @p version. */
void
appendRunAndCommitFrames(EncodeScratch &scratch, Seed config_hash,
                         const CellMeasurement &cell, uint32_t version)
{
    checkCellRuns(cell);
    for (const auto &run : cell.runs)
        scratch.addFrame(run, encodeRunRecordInto);
    CellCommit commit;
    commit.configHash = config_hash;
    commit.chip = cell.chip;
    commit.workloadId = cell.workloadId;
    commit.core = cell.core;
    commit.runCount = static_cast<uint32_t>(cell.runs.size());
    commit.watchdogInterventions = cell.watchdogInterventions;
    commit.telemetry = cell.telemetry;
    scratch.addFrame(commit,
                     [version](std::string &out, const CellCommit &c) {
                         encodeCellCommitInto(out, c, version);
                     });
}

} // namespace

void
RunLedger::append(Seed config_hash, const CellMeasurement &cell)
{
    Key key{config_hash, cell.chip.key(), cell.workloadId, cell.core};
    {
        // Cheap racy pre-check: losing the race is handled by the
        // re-check below; winning it skips the encode entirely.
        std::lock_guard<std::mutex> lock(mutex_);
        if (byKey_.count(key))
            return; // first write wins
    }

    // Encode the whole commit unit — the cell frame, or run frames
    // plus the commit frame — outside the mutex into per-thread
    // scratch. The critical section below is the duplicate re-check,
    // one buffer append and the group-commit flush decision. Cells
    // are encoded at the *file's* version so a resumed older file
    // stays self-consistent (a version-1 file's cells are all the
    // implicit chip).
    EncodeScratch &scratch = encodeScratch();
    if (fileVersion_ >= 3) {
        scratch.addFrame(cell, [&](std::string &out,
                                   const CellMeasurement &c) {
            encodeCellInto(out, config_hash, c);
        });
    } else {
        appendRunAndCommitFrames(scratch, config_hash, cell,
                                 fileVersion_);
    }

    std::lock_guard<std::mutex> lock(mutex_);
    if (!byKey_.emplace(std::move(key), kNotKept).second)
        return; // raced: the first writer's cell stands
    writer_.append(scratch.frames, options_);
}

void
RunLedger::appendDaemonRound(const DaemonRoundRecord &round,
                             const SupervisorCheckpoint &state)
{
    EncodeScratch &scratch = encodeScratch();
    scratch.addFrame(round, encodeDaemonRoundInto);
    scratch.addFrame(state, encodeSupervisorCheckpointInto);

    DaemonRoundEntry entry{round, state};

    std::lock_guard<std::mutex> lock(mutex_);
    writer_.append(scratch.frames, options_);
    daemonRounds_.push_back(std::move(entry));
}

// ---- LedgerView --------------------------------------------------

LedgerView::LedgerView(SeverityWeights weights)
    : weights_(weights)
{
}

void
LedgerView::add(const RunRecord &record)
{
    addAll({&record, 1});
}

LedgerView::Group &
LedgerView::groupFor(const std::string &workload_id, CoreId core)
{
    const auto it =
        index_.find(std::pair(std::string_view(workload_id), core));
    if (it != index_.end())
        return groups_[it->second];
    index_.emplace(std::pair(workload_id, core), groups_.size());
    Group &group = groups_.emplace_back();
    group.workloadId = workload_id;
    group.core = core;
    return group;
}

namespace
{

/** The slot of @p voltage in @p levels (highest voltage first),
 *  inserted when new. The search starts at @p from, the previous
 *  run's slot: a sweep stays on a level or steps to the next one
 *  down, and only a new campaign or level searches the rest. */
template <typename Level>
size_t
voltageSlot(std::vector<Level> &levels, size_t from, MilliVolt voltage)
{
    for (size_t slot = from; slot < std::min(from + 2, levels.size());
         ++slot)
        if (levels[slot].voltage == voltage)
            return slot;
    auto it = std::lower_bound(
        levels.begin(), levels.end(), voltage,
        [](const Level &level, MilliVolt v) { return level.voltage > v; });
    if (it == levels.end() || it->voltage != voltage)
        it = levels.insert(it, Level{voltage, {}});
    return static_cast<size_t>(it - levels.begin());
}

} // namespace

void
LedgerView::addAll(std::span<const RunRecord> records)
{
    // A cell's runs arrive together and, within a campaign, voltage
    // by voltage: the group is looked up again only when the key
    // changes, and the voltage's tally from the previous run's slot.
    // Each tally takes its runs in stream order, which fixes the
    // bits of its weight sum.
    Group *group = nullptr;
    size_t slot = 0;
    for (const RunRecord &record : records) {
        const RunKey &key = record.key;
        if (group == nullptr || key.core != group->core ||
            key.workloadId != group->workloadId) {
            group = &groupFor(key.workloadId, key.core);
            group->analyzed = false;
            slot = 0;
        }
        slot = voltageSlot(group->byVoltage, slot, key.voltage);
        group->byVoltage[slot].tally.add(record.effects, weights_);
    }
}

const LedgerView::Group *
LedgerView::group(std::string_view workload_id, CoreId core) const
{
    const auto it = index_.find(std::pair(workload_id, core));
    if (it == index_.end())
        return nullptr;
    return &groups_[it->second];
}

void
LedgerView::analyze(const Group &group) const
{
    // The one computation site for regions and severity by voltage:
    // a single pass over the cell's per-voltage tallies. Every
    // derived consumer — analyzeRegions(), the report rebuild, the
    // severity datasets, the CSV paths — reads the result of this
    // pass.
    RegionAnalysis analysis;
    // Levels come highest first: each goes to the front of the maps.
    for (const auto &[voltage, tally] : group.byVoltage) {
        const EffectSet seen = tally.effects();
        const bool any_abnormal = !seen.normal();
        const bool any_crash = seen.has(Effect::SC);
        Region region = Region::Safe;
        if (any_crash)
            region = Region::Crash;
        else if (any_abnormal)
            region = Region::Unsafe;
        analysis.regions.emplace_hint(analysis.regions.begin(), voltage,
                                      region);
        analysis.severityByVoltage.emplace_hint(
            analysis.severityByVoltage.begin(), voltage,
            tally.severity());

        if (any_crash && voltage > analysis.highestCrashVoltage)
            analysis.highestCrashVoltage = voltage;
        if (any_abnormal && voltage > analysis.highestAbnormalVoltage)
            analysis.highestAbnormalVoltage = voltage;
    }

    // Safe Vmin: walk from the top; the first non-safe level bounds
    // the safe region from below. Maps iterate ascending, so walk
    // in reverse.
    MilliVolt vmin = 0;
    for (auto it = analysis.regions.rbegin();
         it != analysis.regions.rend(); ++it) {
        if (it->second != Region::Safe)
            break;
        vmin = it->first;
    }
    // Even the highest measured voltage was abnormal: report the
    // level just above it as the (censored) Vmin. The warning is
    // left to whoever owns the order of the cells (warnIfCensored).
    if (vmin == 0)
        vmin = analysis.regions.rbegin()->first;
    analysis.vmin = vmin;

    group.analysis = std::move(analysis);
    group.analyzed = true;
}

const RegionAnalysis *
LedgerView::analysis(const std::string &workload_id,
                     CoreId core) const
{
    const Group *cell = group(workload_id, core);
    if (!cell)
        return nullptr;
    derive(*cell);
    return &cell->analysis;
}

void
LedgerView::derive(const Group &group) const
{
    if (group.analyzed)
        return;
    analyze(group);
    warnIfCensored(group.workloadId, group.core, group.analysis);
}

void
warnIfCensored(std::string_view workload_id, CoreId core,
               const RegionAnalysis &analysis)
{
    if (!analysis.regions.empty() &&
        analysis.regions.rbegin()->second != Region::Safe)
        util::warnf("analyzeRegions: ", workload_id, " core ", core,
                    " abnormal at the top of the sweep; Vmin is "
                    "censored at ",
                    analysis.vmin, " mV");
}

void
LedgerView::deriveAll(int workers) const
{
    std::vector<const Group *> todo;
    todo.reserve(groups_.size());
    for (const auto &group : groups_)
        if (!group.analyzed)
            todo.push_back(&group);
    // Groups are independent: each task writes only its own group's
    // memoized analysis, and analyze() is a pure function of the
    // group's tallies — so the derived views are identical for any
    // worker count, and later analysis()/cellResults() calls are
    // pure reads.
    util::ThreadPool::parallelFor(
        todo.size(), workers,
        [&](size_t i) { analyze(*todo[i]); });
}

std::vector<CellResult>
LedgerView::cellResults() const &
{
    std::vector<CellResult> cells;
    cells.reserve(groups_.size());
    for (const auto &group : groups_) {
        derive(group);
        cells.push_back({group.workloadId, group.core, group.analysis});
    }
    return cells;
}

std::vector<CellResult>
LedgerView::cellResults() &&
{
    std::vector<CellResult> cells;
    cells.reserve(groups_.size());
    for (auto &group : groups_) {
        derive(group);
        cells.push_back({std::move(group.workloadId), group.core,
                         std::move(group.analysis)});
    }
    groups_.clear();
    index_.clear();
    return cells;
}

} // namespace vmargin
