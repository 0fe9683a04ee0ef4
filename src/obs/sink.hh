/**
 * @file
 * JSONL telemetry sink: periodic snapshots plus a final drain.
 *
 * One sink owns one output file. Every flush appends one line — a
 * full Registry::snapshotJson() — so the artifact is a time series
 * of snapshots, and the *last* line is the end-of-run drain whose
 * exact-counter section is deterministic for any worker count. The
 * telemetry and supervisor tests assert the keys of that last line.
 *
 * The sink is strictly out-of-band: it only ever reads the registry,
 * and nothing it writes feeds back into reports, journals or caches.
 */

#ifndef VMARGIN_OBS_SINK_HH
#define VMARGIN_OBS_SINK_HH

#include <cstdio>
#include <string>

#include "clock.hh"
#include "metrics.hh"

namespace vmargin::obs
{

/** Writes registry snapshots to one JSONL file. */
class TelemetrySink
{
  public:
    /**
     * Create/truncate @p path. Fatal (exit 1, value-bearing) when
     * the file cannot be created. @p registry and @p clock are not
     * owned and must outlive the sink.
     */
    explicit TelemetrySink(std::string path,
                           Registry *registry = &Registry::global(),
                           const Clock *clock =
                               &SystemClock::instance());

    /** Final drain: one last snapshot, then close. */
    ~TelemetrySink();

    TelemetrySink(const TelemetrySink &) = delete;
    TelemetrySink &operator=(const TelemetrySink &) = delete;

    /** Append one snapshot line now. Fatal on a write error. */
    void flush();

    /**
     * Append a snapshot if at least @p interval_ms steady-clock
     * milliseconds passed since the last one (the cheap periodic
     * hook for hot loops; <= 0 flushes unconditionally).
     */
    void maybeFlush(int interval_ms);

    /** Snapshot lines written so far. */
    uint64_t snapshots() const { return seq_; }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    Registry *registry_;
    const Clock *clock_;
    std::FILE *file_ = nullptr;
    uint64_t seq_ = 0;
    uint64_t lastFlushNs_ = 0;
};

} // namespace vmargin::obs

#endif // VMARGIN_OBS_SINK_HH
