#include "ledger_codec.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <utility>

#include "util/logging.hh"

namespace vmargin
{

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

    /** A bool byte: 0 or 1, and not ok() on any other byte. */
    bool
    flag()
    {
        const uint8_t byte = u8();
        ok_ = ok_ && byte <= 1;
        return byte == 1;
    }

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
     *  (unknown or repeated site, zero count), or one out of name
     *  order, makes the payload malformed, as a short read does. */
    sim::SiteCounts
    siteCounts()
    {
        sim::SiteCounts sites;
        const uint32_t entries = u32();
        std::string_view previous;
        for (uint32_t i = 0; i < entries && ok_; ++i) {
            const std::string_view site = view();
            const uint64_t count = u64();
            if (ok_ && (site <= previous || !sites.addNamed(site, count)))
                ok_ = false;
            previous = site;
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

// Per-kind decode bodies, positioned after the kind byte: the only
// decoder of record frames. Replay decodes straight into its target
// structs through these. Each returns false on a value no session
// writes; decodeAs() refuses a short payload and bytes after the
// record.

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
 * A version-3 cell frame: its configuration hash into @p config_hash,
 * the cell into @p cell, its runs reserved at their exact count
 * (@p cell starts with none). Each run's
 * fixed part is read with one bounds check and its site counts with
 * one more. Refused as well: a corner, core, effect mask or site
 * mask no session writes, a zero site count, a run count the payload
 * cannot hold and a frequency on a cell with no runs.
 */
bool
readCell(PayloadReader &reader, Seed &config_hash, CellMeasurement &cell)
{
    config_hash = reader.u64();
    const uint8_t corner = reader.u8();
    cell.chip.corner = static_cast<sim::ChipCorner>(corner);
    cell.chip.serial = reader.u32();
    cell.workloadId = reader.str();
    const uint32_t core = reader.u32();
    cell.core = static_cast<CoreId>(core);
    const auto frequency = static_cast<MegaHertz>(reader.u32());
    cell.watchdogInterventions = reader.u64();
    cell.telemetry = readTelemetry(reader);
    const uint32_t run_count = reader.u32();
    if (!reader.ok() || corner > kLastCorner || core > kMaxCoreId ||
        run_count > reader.remaining() / kCellRunFixedBytes ||
        (run_count == 0 && frequency != 0))
        return false;
    std::vector<RunRecord> &runs = cell.runs;
    runs.reserve(run_count);
    for (uint32_t r = 0; r < run_count; ++r) {
        const char *fixed = reader.bytes(kCellRunFixedBytes);
        if (fixed == nullptr)
            return false;
        const auto effects = static_cast<uint8_t>(fixed[12]);
        const auto ce_sites = static_cast<uint8_t>(fixed[65]);
        const auto ue_sites = static_cast<uint8_t>(fixed[66]);
        if (effects >= kEffectSets || (ce_sites | ue_sites) > kAllSites)
            return false;
        RunRecord &run = runs.emplace_back();
        run.key.workloadId = cell.workloadId;
        run.key.core = cell.core;
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
    return true;
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
    state.machineResponsive = reader.flag();
    state.hasSensorSample = reader.flag();
    state.sensorSample = reader.f64();
    state.telemetry = readTelemetry(reader);
    state.supervisorEnabled = reader.flag();
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
        // repeated, descending or out-of-range id refuses the whole
        // record.
        const uint32_t id = reader.u32();
        if (id > kMaxCoreId ||
            (!posture.cores.empty() &&
             static_cast<CoreId>(id) <= posture.cores.back().core))
            return false;
        SupervisorPosture::CoreState &core =
            posture.cores.emplace_back();
        core.core = static_cast<CoreId>(id);
        core.quarantined = reader.flag();
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
    return true;
}

/** Decode @p payload as a record of @p kind through @p read (into
 *  @p out): the kind byte, then the record, then nothing. */
template <typename Read, typename... Out>
bool
decodeAs(std::string_view payload, FrameKind kind, Read read,
         Out &...out)
{
    if (frameKindOf(payload) != kind)
        return false;
    PayloadReader reader(payload.substr(1));
    return read(reader, out...) && reader.ok() && reader.remaining() == 0;
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
    if (pos_ >= bytes_.size())
        return Status::End;
    if (bytes_.size() - pos_ < kLedgerFramePrefixBytes)
        return Status::Truncated;
    const uint32_t length =
        loadLittleEndian<uint32_t>(bytes_.data() + pos_);
    checksum = loadLittleEndian<uint32_t>(bytes_.data() + pos_ + 4);
    if (bytes_.size() - pos_ - kLedgerFramePrefixBytes < length)
        return Status::Truncated;
    payload = bytes_.substr(pos_ + kLedgerFramePrefixBytes, length);
    pos_ += kLedgerFramePrefixBytes + length;
    return Status::Frame;
}

std::string
encodeLedgerHeader(std::string_view app_header)
{
    std::string payload;
    putU32(payload, kLedgerVersion);
    putString(payload, app_header);
    return payload;
}

std::optional<std::string>
decodeLedgerHeader(std::string_view payload, uint32_t &version)
{
    PayloadReader reader(payload);
    version = reader.u32();
    std::string app_header = reader.str();
    if (!reader.ok())
        return std::nullopt;
    return app_header;
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

void
appendCellFrames(std::string &out, std::string &payload,
                 Seed config_hash, const CellMeasurement &cell,
                 uint32_t version)
{
    const auto addFrame = [&](auto encode) {
        payload.clear();
        encode();
        appendFrame(out, payload);
    };
    if (version >= 3) {
        addFrame([&] { encodeCellInto(payload, config_hash, cell); });
        return;
    }
    checkCellRuns(cell);
    for (const RunRecord &run : cell.runs)
        addFrame([&] { encodeRunRecordInto(payload, run); });
    CellCommit commit;
    commit.configHash = config_hash;
    commit.chip = cell.chip;
    commit.workloadId = cell.workloadId;
    commit.core = cell.core;
    commit.runCount = static_cast<uint32_t>(cell.runs.size());
    commit.watchdogInterventions = cell.watchdogInterventions;
    commit.telemetry = cell.telemetry;
    addFrame([&] { encodeCellCommitInto(payload, commit, version); });
}

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

bool
decodeRunRecord(std::string_view payload, RunRecord &run)
{
    return decodeAs(payload, FrameKind::Run, readRunRecord, run);
}

bool
decodeCellCommit(std::string_view payload, uint32_t version,
                 CellCommit &commit)
{
    return decodeAs(payload, FrameKind::Commit, readCellCommit, commit,
                    version);
}

bool
decodeCell(std::string_view payload, Seed &config_hash,
           CellMeasurement &cell)
{
    return decodeAs(payload, FrameKind::Cell, readCell, config_hash,
                    cell);
}

bool
decodeDaemonRound(std::string_view payload, DaemonRoundRecord &round)
{
    return decodeAs(payload, FrameKind::DaemonRound, readDaemonRound,
                    round);
}

bool
decodeSupervisorCheckpoint(std::string_view payload,
                           SupervisorCheckpoint &state)
{
    return decodeAs(payload, FrameKind::Supervisor,
                    readSupervisorCheckpoint, state);
}

} // namespace vmargin
