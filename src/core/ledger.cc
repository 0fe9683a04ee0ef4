#include "ledger.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
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
    // One FNV-1a chain is a serial multiply per byte. A group's
    // chains, stepped together over their common length, keep one
    // multiply per lane in flight; each lane then finishes its own
    // tail.
    constexpr size_t kLanes = kLedgerChecksumLanes;
    size_t first = 0;
    for (; first + kLanes <= payloads.size(); first += kLanes) {
        const std::string_view *group = &payloads[first];
        std::array<const unsigned char *, kLanes> data;
        std::array<uint32_t, kLanes> hash;
        size_t common = group[0].size();
        for (size_t lane = 0; lane < kLanes; ++lane) {
            data[lane] = reinterpret_cast<const unsigned char *>(
                group[lane].data());
            hash[lane] = kFnvOffset;
            common = std::min(common, group[lane].size());
        }
        for (size_t i = 0; i < common; ++i)
            for (size_t lane = 0; lane < kLanes; ++lane)
                hash[lane] = (hash[lane] ^ data[lane][i]) * kFnvPrime;
        for (size_t lane = 0; lane < kLanes; ++lane)
            sums[first + lane] =
                fnv1a(hash[lane], group[lane].substr(common));
    }
    for (; first < payloads.size(); ++first)
        sums[first] = ledgerChecksum(payloads[first]);
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

/** Bounds-checked little-endian reader over one frame payload. */
class PayloadReader
{
  public:
    explicit PayloadReader(std::string_view payload)
        : payload_(payload)
    {
    }

    bool ok() const { return ok_; }

    uint8_t
    u8()
    {
        if (!require(1))
            return 0;
        return static_cast<uint8_t>(payload_[pos_++]);
    }

    uint32_t
    u32()
    {
        if (!require(4))
            return 0;
        uint32_t value = 0;
        for (int shift = 0; shift < 32; shift += 8)
            value |= static_cast<uint32_t>(static_cast<unsigned char>(
                         payload_[pos_++]))
                     << shift;
        return value;
    }

    uint64_t
    u64()
    {
        if (!require(8))
            return 0;
        uint64_t value = 0;
        for (int shift = 0; shift < 64; shift += 8)
            value |= static_cast<uint64_t>(static_cast<unsigned char>(
                         payload_[pos_++]))
                     << shift;
        return value;
    }

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
    uint32_t length = 0;
    for (int shift = 0; shift < 32; shift += 8)
        length |= static_cast<uint32_t>(static_cast<unsigned char>(
                      bytes_[pos_ + static_cast<size_t>(shift / 8)]))
                  << shift;
    checksum = 0;
    for (int shift = 0; shift < 32; shift += 8)
        checksum |=
            static_cast<uint32_t>(static_cast<unsigned char>(
                bytes_[pos_ + 4 + static_cast<size_t>(shift / 8)]))
            << shift;
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

/** DaemonRoundRecord bool flags packed into one byte. */
constexpr uint8_t kRoundAbnormal = 1u << 0;
constexpr uint8_t kRoundCrashed = 1u << 1;
constexpr uint8_t kRoundFallback = 1u << 2;
constexpr uint8_t kRoundCanary = 1u << 3;
constexpr uint8_t kRoundPinned = 1u << 4;

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
    putU32(payload, static_cast<uint32_t>(state.guardSteps));
    putU32(payload, static_cast<uint32_t>(state.peakGuardSteps));
    putU32(payload, state.cleanStreak);
    payload.push_back(static_cast<char>(state.clampReason));
    putU64(payload, state.backoffEvents);
    putU64(payload, state.narrowEvents);
    putU64(payload, state.quarantines);
    putU64(payload, state.readmissions);
    putU64(payload, state.canaryRounds);
    putU64(payload, state.canaryFailures);
    putU64(payload, state.pinnedRounds);
    putU32(payload,
           static_cast<uint32_t>(state.recentCrashRounds.size()));
    for (const uint32_t round : state.recentCrashRounds)
        putU32(payload, round);
    putU32(payload, static_cast<uint32_t>(state.cores.size()));
    for (const auto &core : state.cores) {
        putU32(payload, core.core);
        payload.push_back(static_cast<char>(core.mode));
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
// (short buffer, unknown effect name, refused site entry) and replay
// skips the frame.

bool
readRunRecord(PayloadReader &reader, RunRecord &run)
{
    run.key.workloadId = reader.str();
    run.key.core = static_cast<CoreId>(reader.u32());
    run.key.voltage = static_cast<MilliVolt>(reader.u32());
    run.key.frequency = static_cast<MegaHertz>(reader.u32());
    run.key.campaign = reader.u32();
    run.key.runIndex = reader.u32();
    const auto effects = EffectSet::fromString(reader.view());
    if (!effects)
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
    commit.core = static_cast<CoreId>(reader.u32());
    commit.runCount = reader.u32();
    commit.watchdogInterventions = reader.u64();
    commit.telemetry = readTelemetry(reader);
    if (version >= 2) {
        commit.chip.corner =
            static_cast<sim::ChipCorner>(reader.u8());
        commit.chip.serial = reader.u32();
    }
    // Version 1 predates the chip dimension: the commit keeps the
    // default ChipRef and the replay loop maps it onto the implicit
    // chip the reader supplied.
    return reader.ok();
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
    return reader.ok();
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
    state.guardSteps = static_cast<int32_t>(reader.u32());
    state.peakGuardSteps = static_cast<int32_t>(reader.u32());
    state.cleanStreak = reader.u32();
    state.clampReason = reader.u8();
    state.backoffEvents = reader.u64();
    state.narrowEvents = reader.u64();
    state.quarantines = reader.u64();
    state.readmissions = reader.u64();
    state.canaryRounds = reader.u64();
    state.canaryFailures = reader.u64();
    state.pinnedRounds = reader.u64();
    const uint32_t crashes = reader.u32();
    for (uint32_t i = 0; i < crashes && reader.ok(); ++i)
        state.recentCrashRounds.push_back(reader.u32());
    const uint32_t cores = reader.u32();
    for (uint32_t i = 0; i < cores && reader.ok(); ++i) {
        SupervisorCheckpoint::CoreState core;
        core.core = reader.u32();
        core.mode = reader.u8();
        core.ceRate = reader.f64();
        core.ueRate = reader.f64();
        core.sdcRate = reader.f64();
        core.crashRate = reader.f64();
        core.ceEvents = reader.u64();
        core.ueEvents = reader.u64();
        core.sdcEvents = reader.u64();
        core.crashEvents = reader.u64();
        core.cleanInQuarantine = reader.u32();
        if (reader.ok())
            state.cores.push_back(core);
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

void
RunLedger::open(const std::string &app_header,
                const std::string &mismatch_hint,
                ChipRef implicit_chip)
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

    // Walk the frames with the zero-copy cursor (payloads are views
    // into the bulk buffer; nothing is copied until a record is
    // accepted). The header frame is mandatory and versioned;
    // record frames tolerate corruption (skip) and truncation
    // (stop): the tail a killed process was writing is re-run, not
    // trusted.
    // Replay telemetry: what the file contained is a pure function
    // of what previous sessions wrote, so all three are exact-class.
    obs::Counter &statReplayFrames =
        obs::Registry::global().counter("ledger.replay_frames");
    obs::Counter &statReplaySkipped =
        obs::Registry::global().counter("ledger.replay_skipped");
    obs::Counter &statTornTails = obs::Registry::global().counter(
        "ledger.torn_tail_truncations");

    bool saw_header = false;
    CellMeasurement pending;
    bool pending_corrupt = false;
    size_t pending_records = 0;

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

    // Replayed cells in one ledger are similar in size: each pending
    // cell reserves the last committed cell's run count.
    size_t expected_runs = 0;
    const auto resetPending = [&]() {
        pending = CellMeasurement{};
        pending.runs.reserve(expected_runs);
        pending_corrupt = false;
        pending_records = 0;
    };
    resetPending();

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

    // Byte offset one past the last *committed unit* (header frame,
    // commit frame, accepted checkpoint). Everything after it —
    // torn frames, but also complete-but-uncommitted record frames
    // a killed batch left behind — is the untrusted tail the writer
    // cuts before appending: run frames dangling without their
    // commit would otherwise poison the next appended cell's run
    // count on a later replay.
    size_t committed = kMagicBytes;

    // Replay one whole frame ending at file offset @p end, whose
    // checksum matched (@p intact) or not.
    const auto replayFrame = [&](std::string_view payload, bool intact,
                                 size_t end) {
        statReplayFrames.inc();

        if (!saw_header) {
            // First frame binds the file: framing version and the
            // application header must both match.
            if (!intact)
                util::fatalError(name_ + ": '" + path_ +
                                 "' has a corrupt header frame");
            PayloadReader reader(payload);
            const uint32_t version = reader.u32();
            if (version < kLedgerMinVersion ||
                version > kLedgerVersion)
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
                                      ? std::string(
                                            "header mismatch")
                                      : mismatch_hint));
            saw_header = true;
            committed = end;
            return;
        }

        if (!intact) {
            statReplaySkipped.inc();
            util::warnf(name_, ": '", path_,
                        "' frame checksum mismatch; skipping the "
                        "record");
            // The pending cell lost a frame; the daemon stream loses
            // its sequence guarantee too.
            losePendingFrame();
            poisonDaemon("frame checksum mismatch");
            return;
        }

        // Decode straight into the destination slot through the
        // per-kind readers.
        const auto markMalformed = [&]() {
            statReplaySkipped.inc();
            util::warnf(name_, ": '", path_,
                        "' malformed record; skipping it");
            losePendingFrame();
            poisonDaemon("malformed record");
        };
        PayloadReader reader(payload);
        const auto kind = static_cast<FrameKind>(reader.u8());

        if (kind == FrameKind::Run) {
            RunRecord &run = pending.runs.emplace_back();
            if (!readRunRecord(reader, run)) {
                pending.runs.pop_back();
                markMalformed();
                return;
            }
            if (pending_records == 0)
                pending.workloadId = run.key.workloadId;
            ++pending_records;
            return;
        }

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
            committed = end;
            return;
        }

        if (kind == FrameKind::Commit) {
            // Commit: accept the pending cell only when intact —
            // the run count matches, it is not poisoned (see
            // losePendingFrame), and the key is not already present
            // (first occurrence wins; racing sessions may append the
            // same cell twice).
            CellCommit commit;
            if (!readCellCommit(reader, commit, fileVersion_)) {
                markMalformed();
                return;
            }
            if (fileVersion_ < 2)
                // Legacy file: every cell belongs to the implicit
                // single chip the caller supplied.
                commit.chip = implicit_chip;
            const bool cell_intact =
                !pending_corrupt &&
                pending.runs.size() == commit.runCount;
            if (cell_intact &&
                byKey_
                    .emplace(Key{commit.configHash, commit.chip.key(),
                                 commit.workloadId, commit.core},
                             entries_.size())
                    .second) {
                pending.chip = commit.chip;
                pending.workloadId = commit.workloadId;
                pending.core = commit.core;
                pending.watchdogInterventions =
                    commit.watchdogInterventions;
                pending.telemetry = commit.telemetry;
                entries_.push_back(
                    Entry{commit.configHash, std::move(pending)});
                expected_runs = commit.runCount;
            }
            resetPending();
            // The unit ended here even when the cell was refused (a
            // poisoned or duplicate cell is simply re-run); appended
            // frames after this boundary stand on their own.
            committed = end;
            return;
        }

        markMalformed(); // unknown record kind
    };

    // Walk the frames in groups of kLedgerChecksumLanes: a group's
    // checksums are computed together (ledgerChecksums), then its
    // frames are replayed one by one in file order, each exactly as
    // if verified alone, so no skip, refuse or fatal decision moves.
    constexpr size_t kLanes = kLedgerChecksumLanes;
    std::array<std::string_view, kLanes> payloads;
    std::array<uint32_t, kLanes> recorded{};
    std::array<uint32_t, kLanes> computed{};
    std::array<size_t, kLanes> ends{};
    FrameCursor cursor(bytes, kMagicBytes);
    FrameCursor::Status status = FrameCursor::Status::Frame;
    while (status == FrameCursor::Status::Frame) {
        size_t count = 0;
        while (count < kLanes &&
               (status = cursor.next(payloads[count],
                                     recorded[count])) ==
                   FrameCursor::Status::Frame)
            ends[count++] = cursor.offset();
        ledgerChecksums(std::span(payloads).first(count),
                        std::span(computed).first(count));
        for (size_t i = 0; i < count; ++i)
            replayFrame(payloads[i], computed[i] == recorded[i],
                        ends[i]);
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
    if (!saw_header)
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

    // Encode the whole commit unit — run frames plus the commit
    // frame — outside the mutex into per-thread scratch. The
    // critical section below is the duplicate re-check, one buffer
    // append and the group-commit flush decision. Commits are
    // encoded at the *file's* version so a resumed legacy file
    // stays self-consistent (all its cells are the implicit chip).
    EncodeScratch &scratch = encodeScratch();
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
                     [this](std::string &out, const CellCommit &c) {
                         encodeCellCommitInto(out, c, fileVersion_);
                     });

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
    weights_.validate();
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
    group.key = CellKey{workload_id, core};
    order_.push_back(group.key);
    return group;
}

void
LedgerView::addAll(std::span<const RunRecord> records)
{
    // A cell's runs arrive together and, within a campaign, voltage
    // by voltage: the group and the voltage's bucket are looked up
    // again only when the key changes.
    Group *group = nullptr;
    std::vector<EffectSet> *bucket = nullptr;
    MilliVolt bucket_voltage = 0;
    for (const RunRecord &record : records) {
        const RunKey &key = record.key;
        if (group == nullptr || key.core != group->key.core ||
            key.workloadId != group->key.workloadId) {
            group = &groupFor(key.workloadId, key.core);
            group->analyzed = false;
            bucket = nullptr;
        }
        if (bucket == nullptr || key.voltage != bucket_voltage) {
            bucket = &group->runsByVoltage[key.voltage];
            bucket_voltage = key.voltage;
        }
        bucket->push_back(record.effects);
    }
    runCount_ += records.size();
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
    // a single pass over the cell's grouped effects. Every derived
    // consumer — analyzeRegions(), the report rebuild, the severity
    // datasets, the CSV paths — reads the result of this pass.
    RegionAnalysis analysis;
    analysis.runsByVoltage = group.runsByVoltage;
    for (const auto &[voltage, effect_sets] :
         analysis.runsByVoltage) {
        bool any_abnormal = false;
        bool any_crash = false;
        for (const auto &set : effect_sets) {
            any_abnormal = any_abnormal || !set.normal();
            any_crash = any_crash || set.has(Effect::SC);
        }
        Region region = Region::Safe;
        if (any_crash)
            region = Region::Crash;
        else if (any_abnormal)
            region = Region::Unsafe;
        analysis.regions[voltage] = region;
        analysis.severityByVoltage[voltage] =
            severity(effect_sets, weights_);

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
    if (vmin == 0) {
        // Even the highest measured voltage was abnormal; report the
        // level just above it as the (censored) Vmin.
        vmin = analysis.regions.rbegin()->first;
        util::warnf("analyzeRegions: ", group.key.workloadId,
                    " core ", group.key.core,
                    " abnormal at the top of the sweep; Vmin is "
                    "censored at ",
                    vmin, " mV");
    }
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
    if (!cell->analyzed)
        analyze(*cell);
    return &cell->analysis;
}

const std::map<MilliVolt, double> &
LedgerView::severityByVoltage(const std::string &workload_id,
                              CoreId core) const
{
    const RegionAnalysis *cell = analysis(workload_id, core);
    if (!cell)
        util::panicf("LedgerView: no records for ", workload_id,
                     " on core ", core);
    return cell->severityByVoltage;
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
    // group's accumulated effects — so the derived views are
    // identical for any worker count, and later analysis()/
    // cellResults() calls are pure reads.
    util::ThreadPool::parallelFor(
        todo.size(), workers,
        [&](size_t i) { analyze(*todo[i]); });
}

std::vector<CellResult>
LedgerView::cellResults() const
{
    std::vector<CellResult> cells;
    cells.reserve(groups_.size());
    for (const auto &group : groups_) {
        if (!group.analyzed)
            analyze(group);
        CellResult cell;
        cell.workloadId = group.key.workloadId;
        cell.core = group.key.core;
        cell.analysis = group.analysis;
        cells.push_back(std::move(cell));
    }
    return cells;
}

} // namespace vmargin
