/**
 * @file
 * Lock-cheap metrics registry for the runtime telemetry plane.
 *
 * The paper's methodology depends on knowing what the system was
 * doing when a margin violation appeared: the characterization
 * framework of Papadimitriou et al. logs per-run progress, severity
 * and sensor state precisely so that campaigns are diagnosable after
 * the fact. This module gives the repo's hot planes (executor,
 * fleet, ledger, daemon, thread pool) one shared vocabulary for that
 * visibility:
 *
 *  - **Counter** — monotonic uint64, relaxed atomic increments.
 *  - **Gauge**   — last-write-wins int64 level (queue depths).
 *  - **SpanStat** — begin/end phase tracing aggregated per name
 *    (count, total/min/max steady-clock nanoseconds); `ScopedSpan`
 *    is the RAII begin/end pair.
 *
 * Metrics are *named and label-free*; registration is
 * mutex-guarded (cold — instrumented components fetch their handles
 * once, at construction or sweep start) and increments are plain
 * atomics (hot). Registration order is deterministic because every
 * handle is fetched from deterministic code paths, and snapshots
 * additionally emit names in sorted order so the serialized form
 * never depends on which component registered first.
 *
 * Determinism contract (the telemetry side of the repo-wide
 * byte-identity guarantee): every metric declares a Stability class.
 * `Exact` metrics — cells planned/measured, cache hits, ledger
 * appends, daemon rounds, quarantine events — have values that are a
 * pure function of the configuration: identical for any worker
 * count, with telemetry sinks on or off. `Sched` metrics — steal
 * counts, idle time, flush batches, every duration — depend on
 * scheduling and are excluded from that promise. Snapshots keep the
 * two classes in separate JSON sections so tests (and CI gates) can
 * compare the exact section bytewise.
 *
 * Telemetry is strictly out-of-band: nothing in this module is ever
 * serialized into campaign/fleet reports, journals or caches.
 */

#ifndef VMARGIN_OBS_METRICS_HH
#define VMARGIN_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "clock.hh"

namespace vmargin::obs
{

/** Determinism class of a metric's *value* (see file header). */
enum class Stability : uint8_t
{
    Exact, ///< pure function of the configuration
    Sched, ///< depends on thread scheduling / wall time
};

/** Monotonic counter. */
class Counter
{
  public:
    void inc(uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    friend class Registry;
    void reset() { value_.store(0, std::memory_order_relaxed); }

    std::atomic<uint64_t> value_{0};
};

/** Last-write-wins level; max() keeps a high-water mark. */
class Gauge
{
  public:
    void set(int64_t v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    void add(int64_t d)
    {
        value_.fetch_add(d, std::memory_order_relaxed);
    }

    /** Raise the gauge to @p v if it is higher (high-water mark). */
    void max(int64_t v)
    {
        int64_t cur = value_.load(std::memory_order_relaxed);
        while (v > cur &&
               !value_.compare_exchange_weak(
                   cur, v, std::memory_order_relaxed))
            ;
    }

    int64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    friend class Registry;
    void reset() { value_.store(0, std::memory_order_relaxed); }

    std::atomic<int64_t> value_{0};
};

/**
 * Aggregated phase/span timing for one name: how many times the
 * phase ran and the total/min/max steady-clock duration. Counts of
 * per-cell or per-round spans are configuration-determined; the
 * durations never are, which is why spans always live in the
 * scheduling section of a snapshot.
 */
class SpanStat
{
  public:
    void record(uint64_t duration_ns);

    uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    uint64_t totalNs() const
    {
        return totalNs_.load(std::memory_order_relaxed);
    }
    /** 0 when the span never ran. */
    uint64_t minNs() const;
    uint64_t maxNs() const
    {
        return maxNs_.load(std::memory_order_relaxed);
    }

  private:
    friend class Registry;
    void reset();

    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> totalNs_{0};
    std::atomic<uint64_t> minNs_{UINT64_MAX};
    std::atomic<uint64_t> maxNs_{0};
};

/**
 * RAII begin/end pair over a SpanStat: records the steady-clock
 * duration between construction and destruction.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(SpanStat &stat,
                        const Clock &clock = SystemClock::instance())
        : stat_(stat), clock_(clock), begin_(clock.steadyNanos())
    {
    }

    ~ScopedSpan() { stat_.record(clock_.steadyNanos() - begin_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanStat &stat_;
    const Clock &clock_;
    uint64_t begin_;
};

/**
 * The metrics registry. Handles returned by counter()/gauge()/
 * span() are stable for the registry's lifetime;
 * fetching the same name again returns the same object (a kind
 * mismatch on re-registration aborts — it is a programming error).
 * Most code uses the process-wide global() instance; tests build
 * private registries to isolate state.
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    Counter &counter(const std::string &name,
                     Stability stability = Stability::Exact);
    Gauge &gauge(const std::string &name);
    SpanStat &span(const std::string &name);

    /** Registered names in registration order. */
    std::vector<std::string> names() const;

    /**
     * The exact-class counters as one sorted, deterministic JSON
     * object: {"a.b":1,"c.d":2}. This is the byte-comparable piece
     * of a snapshot — identical for any worker count.
     */
    std::string countersJson() const;

    /**
     * One full snapshot as a single JSON object (one JSONL line
     * without the trailing newline): schema tag, @p seq, wall-clock
     * from @p clock, then the "counters" (exact), "scheduling"
     * (sched counters + gauges) and "spans" sections, each
     * name-sorted.
     */
    std::string snapshotJson(uint64_t seq,
                             const Clock &clock =
                                 SystemClock::instance()) const;

    /** Zero every metric's value (registration survives). Test and
     *  bench helper — never called on live workers. */
    void reset();

    /** The process-wide registry every instrumented plane uses. */
    static Registry &global();

  private:
    enum class Kind : uint8_t
    {
        Counter,
        Gauge,
        Span,
    };

    struct Entry
    {
        std::string name;
        Kind kind = Kind::Counter;
        Stability stability = Stability::Exact;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<SpanStat> span;
    };

    Entry &lookup(const std::string &name, Kind kind,
                  Stability stability);

    mutable std::mutex mutex_; ///< guards entries_ (registration)
    std::vector<std::unique_ptr<Entry>> entries_;
};

} // namespace vmargin::obs

#endif // VMARGIN_OBS_METRICS_HH
