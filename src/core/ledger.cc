#include "ledger.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <latch>
#include <span>
#include <sstream>
#include <utility>

#if __has_include(<sys/mman.h>)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define VMARGIN_LEDGER_HAVE_MMAP 1
#endif

#include "util/logging.hh"
#include "util/threadpool.hh"

namespace vmargin
{

// ---- RunLedger ---------------------------------------------------

namespace
{

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
    ~LedgerFileBuffer()
    {
#ifdef VMARGIN_LEDGER_HAVE_MMAP
        if (map_ != nullptr)
            ::munmap(map_, mapSize_);
#endif
    }
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

// ---- replay ------------------------------------------------------

namespace
{

/** What pass 2 found in one record frame. */
enum class FrameVerdict : uint8_t
{
    Corrupt, ///< checksum mismatch
    Intact,  ///< intact, not yet decoded: pass 3's
    Cell,    ///< intact version-3 cell frame, decoded into its slot
};

} // namespace

LedgerReplay
replayLedger(std::string_view bytes, const std::string &app_header,
             const std::string &label, util::ThreadPool *pool,
             const std::string &mismatch_hint, ChipRef implicit_chip)
{
    if (bytes.size() < kLedgerMagicBytes ||
        bytes.compare(0, kLedgerMagicBytes, kLedgerMagic,
                      kLedgerMagicBytes) != 0)
        util::fatalError(label + " is not a vmargin ledger file");

    // ---- pass 1: walk the frames, check the header ----------------
    // The zero-copy cursor finds every whole frame; the payloads are
    // views into @p bytes. The header frame is mandatory and
    // versioned; record frames tolerate corruption (skip) and
    // truncation (stop): the tail a killed process was writing is
    // re-run, not trusted.
    std::vector<std::string_view> payloads; // header frame first
    std::vector<uint32_t> recorded;         // checksums on disk
    FrameCursor cursor(bytes, kLedgerMagicBytes);
    FrameCursor::Status status = FrameCursor::Status::Frame;
    {
        std::string_view payload;
        uint32_t checksum = 0;
        while ((status = cursor.next(payload, checksum)) ==
               FrameCursor::Status::Frame) {
            payloads.push_back(payload);
            recorded.push_back(checksum);
        }
    }
    const size_t frame_count = payloads.size();
    LedgerReplay replay;
    replay.frames = frame_count;
    replay.committedBytes = kLedgerMagicBytes;
    // File offset one past frame @p f.
    const auto endOf = [&](size_t f) {
        const std::string_view payload = payloads[f];
        return static_cast<size_t>(payload.data() - bytes.data()) +
               payload.size();
    };

    if (frame_count > 0) {
        // The first frame binds the file: framing version and the
        // application header must both match.
        if (ledgerChecksum(payloads[0]) != recorded[0])
            util::fatalError(label + " has a corrupt header frame");
        const std::optional<std::string> header =
            decodeLedgerHeader(payloads[0], replay.version);
        if (replay.version < kLedgerMinVersion ||
            replay.version > kLedgerVersion)
            util::fatalError(
                label + " uses ledger version " +
                std::to_string(replay.version) + ", this build reads " +
                std::to_string(kLedgerMinVersion) + " through " +
                std::to_string(kLedgerVersion) +
                "; refusing to mix versions");
        if (!header)
            util::fatalError(label + " has a malformed header frame");
        if (*header != app_header)
            util::fatalError(label + " " +
                             (mismatch_hint.empty()
                                  ? std::string("header mismatch")
                                  : mismatch_hint));
        replay.committedBytes = endOf(0);
    }

    // ---- pass 2: verify, and decode cell frames -------------------
    // The record frames are dealt in fixed, contiguous, byte-balanced
    // ranges, at most one per worker, each task waiting at a latch
    // until all have started (the merge's deal): each worker's
    // malloc arena then holds the same runs on every replay of the
    // same file.
    const bool cell_frames = replay.version >= 3;
    std::vector<uint32_t> computed(frame_count);
    std::vector<FrameVerdict> verdicts(frame_count);
    // One decoded-cell slot per frame in a version-3 file.
    std::vector<RunLedger::Entry> cells(cell_frames ? frame_count : 0);
    // Frames [first, end): their checksums in one ledgerChecksums()
    // call, then each intact version-3 cell frame decoded into its
    // slot. Writes only these frames' slots — no warning, counter or
    // index — so disjoint ranges verify concurrently.
    const auto verifyFrames = [&](size_t first, size_t end) {
        ledgerChecksums(
            std::span(payloads).subspan(first, end - first),
            std::span(computed).subspan(first, end - first));
        for (size_t f = first; f < end; ++f) {
            if (computed[f] != recorded[f]) {
                verdicts[f] = FrameVerdict::Corrupt;
            } else if (!cell_frames ||
                       frameKindOf(payloads[f]) != FrameKind::Cell) {
                verdicts[f] = FrameVerdict::Intact;
            } else if (decodeCell(payloads[f], cells[f].configHash,
                                  cells[f].cell)) {
                verdicts[f] = FrameVerdict::Cell;
            } else {
                cells[f].cell.runs = {};
                verdicts[f] = FrameVerdict::Intact; // malformed: pass 3
            }
        }
    };
    const size_t tasks = std::min(
        pool == nullptr ? size_t{1}
                        : static_cast<size_t>(pool->workerCount()),
        frame_count > 0 ? frame_count - 1 : 0);
    if (tasks == 1) {
        verifyFrames(1, frame_count);
    } else if (tasks > 1) {
        // Task t verifies frames [bounds[t], bounds[t + 1]): those
        // ending in its share of the record bytes.
        const size_t begin_byte = endOf(0);
        const size_t record_bytes = endOf(frame_count - 1) - begin_byte;
        std::vector<size_t> bounds{1};
        for (size_t f = 1; f < frame_count; ++f)
            while (bounds.size() < tasks &&
                   endOf(f) > begin_byte +
                                  record_bytes * bounds.size() / tasks)
                bounds.push_back(f);
        bounds.push_back(frame_count);
        // The pool is idle and tasks <= workers, so every task
        // reaches the latch.
        std::latch started(static_cast<std::ptrdiff_t>(tasks));
        for (size_t t = 0; t < tasks; ++t)
            pool->submit([&, t] {
                started.arrive_and_wait();
                verifyFrames(bounds[t], bounds[t + 1]);
            });
        pool->wait();
    }

    // ---- pass 3: the frames, one at a time, in file order ----------
    // Every skip, refusal, warning, count, first-write-wins decision
    // and committed-prefix cut falls here, on this thread.
    std::vector<RunRecord> pending; // version 1 and 2: runs so far
    bool pending_corrupt = false;
    const auto resetPending = [&]() {
        pending = {};
        pending_corrupt = false;
    };

    // Daemon-round pairing state: a round frame awaits its
    // checkpoint frame (the commit). Any break in the sequence —
    // corruption, a gap, an out-of-order round — poisons the rest
    // of the daemon stream: resuming past a hole would continue
    // from a wrong trajectory, so everything after it is re-run.
    bool daemon_poisoned = false;
    std::optional<DaemonRoundRecord> pending_round;

    const auto poisonDaemon = [&](const char *why) {
        if (!daemon_poisoned)
            util::warnf(label, " ", why,
                        "; later daemon rounds will be re-run");
        daemon_poisoned = true;
        pending_round.reset();
    };

    // A record frame was lost (checksum mismatch or malformed). With
    // runs pending, the lost frame was one of them or the commit
    // that ended them: drop them, so a cell missing a run falls
    // short of its commit's count and is refused, while after a
    // lost commit the next cell starts clean. With nothing pending,
    // the lost frame may have been the next cell's first run:
    // poison that cell so its commit is refused.
    const auto losePendingFrame = [&]() {
        if (pending.empty())
            pending_corrupt = true;
        else
            resetPending();
    };
    // Keep a cell unless its key is already present (first
    // occurrence wins; racing sessions may append the same cell
    // twice).
    const auto keepCell = [&](RunLedger::Entry &&entry) {
        const CellMeasurement &cell = entry.cell;
        if (replay.index
                .emplace(RunLedger::Key{entry.configHash, cell.chip.key(),
                                        cell.workloadId, cell.core},
                         replay.entries.size())
                .second)
            replay.entries.push_back(std::move(entry));
    };
    const auto markMalformed = [&]() {
        ++replay.skipped;
        util::warnf(label, " malformed record; skipping it");
        losePendingFrame();
        poisonDaemon("malformed record");
    };
    replay.entries.reserve(static_cast<size_t>(
        std::ranges::count(verdicts, FrameVerdict::Cell)));
    for (size_t f = 1; f < frame_count; ++f) {
        switch (verdicts[f]) {
        case FrameVerdict::Corrupt:
            ++replay.skipped;
            util::warnf(label, " frame checksum mismatch; skipping the "
                               "record");
            // The pending cell lost a frame; the daemon stream loses
            // its sequence guarantee too.
            losePendingFrame();
            poisonDaemon("frame checksum mismatch");
            continue;
        case FrameVerdict::Cell:
            // A whole cell under one checksum: nothing pending can
            // belong to it.
            keepCell(std::move(cells[f]));
            replay.committedBytes = endOf(f);
            continue;
        case FrameVerdict::Intact:
            break;
        }

        const std::string_view payload = payloads[f];
        const FrameKind kind = frameKindOf(payload);
        if (kind == FrameKind::Run && !cell_frames) {
            if (!decodeRunRecord(payload, pending.emplace_back())) {
                pending.pop_back();
                markMalformed();
            }
        } else if (kind == FrameKind::Commit && !cell_frames) {
            // A commit closing the pending runs keeps the cell only
            // when intact: the run count matches, it is not poisoned
            // (see losePendingFrame), and every run is of the commit's
            // workload and core, as every session writes them.
            CellCommit commit;
            if (!decodeCellCommit(payload, replay.version, commit)) {
                markMalformed();
                continue;
            }
            if (replay.version < 2)
                // Legacy file: every cell belongs to the implicit
                // single chip the caller supplied.
                commit.chip = implicit_chip;
            if (!pending_corrupt && pending.size() == commit.runCount &&
                std::all_of(pending.begin(), pending.end(),
                            [&](const RunRecord &run) {
                                return run.key.core == commit.core &&
                                       run.key.workloadId ==
                                           commit.workloadId;
                            })) {
                // Gathered run by run: drop the growth's spare room.
                pending.shrink_to_fit();
                keepCell({commit.configHash,
                          {.chip = commit.chip,
                           .workloadId = std::move(commit.workloadId),
                           .core = commit.core,
                           .runs = std::move(pending),
                           .records = {},
                           .watchdogInterventions =
                               commit.watchdogInterventions,
                           .telemetry = commit.telemetry}});
            }
            resetPending();
            // The unit ended here even when the cell was refused (a
            // poisoned or duplicate cell is simply re-run); appended
            // frames after this boundary stand on their own.
            replay.committedBytes = endOf(f);
        } else if (kind == FrameKind::DaemonRound) {
            DaemonRoundRecord round;
            if (!decodeDaemonRound(payload, round))
                markMalformed();
            else if (daemon_poisoned)
                continue;
            else if (pending_round)
                poisonDaemon("daemon round without its checkpoint");
            else if (round.round !=
                     static_cast<int>(replay.daemonRounds.size()))
                poisonDaemon("daemon round out of sequence");
            else
                pending_round = round;
        } else if (kind == FrameKind::Supervisor) {
            SupervisorCheckpoint state;
            if (!decodeSupervisorCheckpoint(payload, state)) {
                markMalformed();
            } else if (daemon_poisoned) {
                continue;
            } else if (!pending_round ||
                       state.roundsCompleted !=
                           static_cast<uint32_t>(pending_round->round) +
                               1) {
                poisonDaemon("supervisor checkpoint out of sequence");
            } else {
                replay.daemonRounds.push_back(
                    {*pending_round, std::move(state)});
                pending_round.reset();
                replay.committedBytes = endOf(f);
            }
        } else {
            // An unknown kind, a cell record of the other framing or
            // a cell frame that did not decode.
            markMalformed();
        }
    }

    if (status == FrameCursor::Status::Truncated) {
        replay.tornTail = true;
        if (bytes.size() - cursor.offset() < kLedgerFramePrefixBytes)
            util::warnf(label, " ends in a truncated frame prefix; "
                               "discarding the tail");
        else
            util::warnf(label, " ends in a truncated record; "
                               "discarding the tail");
    }
    if (frame_count == 0)
        util::fatalError(label + " has no header frame");
    return replay;
}

void
RunLedger::open(const std::string &app_header,
                const std::string &mismatch_hint,
                ChipRef implicit_chip, util::ThreadPool *pool)
{
    writer_.close();
    LedgerFileBuffer file;
    const bool exists = file.load(path_);
    LedgerReplay replay;
    if (exists) {
        replay = replayLedger(file.bytes(), app_header,
                              name_ + ": '" + path_ + "'", pool,
                              mismatch_hint, implicit_chip);
        // What the file contained is a pure function of what earlier
        // sessions wrote, so all three counters are exact-class.
        obs::Registry &registry = obs::Registry::global();
        registry.counter("ledger.replay_frames").inc(replay.frames);
        registry.counter("ledger.replay_skipped").inc(replay.skipped);
        registry.counter("ledger.torn_tail_truncations")
            .inc(replay.tornTail ? 1 : 0);
    }
    fileVersion_ = replay.version;
    entries_ = std::move(replay.entries);
    byKey_ = std::move(replay.index);
    daemonRounds_ = std::move(replay.daemonRounds);
    if (exists) {
        // Append after the last committed unit: the torn tail and
        // any dangling uncommitted frames are cut, so appended frames
        // realign the framing.
        writer_.openAppend(replay.committedBytes);
        return;
    }
    // Fresh ledger: create it with the magic and binding header.
    std::string bytes(kLedgerMagic, kLedgerMagicBytes);
    appendFrame(bytes, encodeLedgerHeader(app_header));
    writer_.create(bytes);
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
};

EncodeScratch &
encodeScratch()
{
    thread_local EncodeScratch scratch;
    scratch.frames.clear();
    scratch.payload.clear();
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

    // Encode the whole commit unit — the cell frame, or run frames
    // plus the commit frame — outside the mutex into per-thread
    // scratch. The critical section below is the duplicate re-check,
    // one buffer append and the group-commit flush decision. Cells
    // are encoded at the *file's* version so a resumed older file
    // stays self-consistent (a version-1 file's cells are all the
    // implicit chip).
    EncodeScratch &scratch = encodeScratch();
    appendCellFrames(scratch.frames, scratch.payload, config_hash, cell,
                     fileVersion_);

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
    encodeDaemonRoundInto(scratch.payload, round);
    appendFrame(scratch.frames, scratch.payload);
    scratch.payload.clear();
    encodeSupervisorCheckpointInto(scratch.payload, state);
    appendFrame(scratch.frames, scratch.payload);

    DaemonRoundEntry entry{round, state};

    std::lock_guard<std::mutex> lock(mutex_);
    writer_.append(scratch.frames, options_);
    daemonRounds_.push_back(std::move(entry));
}

} // namespace vmargin
