/**
 * @file
 * Shared pieces of the repo benchmark driver: run options, the
 * result record every workload returns, the closed-loop timer and the
 * in-memory span trace the traced runs record around calls into the
 * library's public functions.
 *
 * Nothing here reaches into vmargin internals; the traced runs time
 * public calls from the benchmark's own files, so the library under
 * test is byte-for-byte the one users link.
 */

#ifndef VMBENCH_BENCH_HH
#define VMBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace vmbench
{

/** The seed whose output hashes are pinned in pinned.json. */
constexpr uint64_t kDefaultSeed = 1;

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;

    /** Scaled-down inputs, for the benchmark's own tests. */
    bool smoke = false;

    /** Directory for journals and the span dump. */
    std::string workdir = ".bench_build/work";

    /** Pinned output hash (hex) every op must reproduce; empty =
     *  every op must reproduce the first op's hash instead. */
    std::string expectHash;
};

/** Chip serial the seed selects (serial 0 is the reserved implicit
 *  chip, so serials start at 1). */
inline uint32_t
serialFor(uint64_t seed)
{
    return static_cast<uint32_t>(1 + seed % 1000000);
}

/** Set-up repetitions; the reported setup_s is their median. */
inline int
setupRepeats(const Options &options)
{
    return options.smoke ? 1 : 3;
}

/** Batches each phase runs at least, per kind, so a second op always
 *  checks the first op's hash. */
constexpr size_t kMinBatches = 2;

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload run reports. */
struct RunResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;

    /** Output hash of the ops (hex), reported beside the result. */
    std::string outputHash;
};

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point begin, Clock::time_point end)
{
    return std::chrono::duration<double>(end - begin).count();
}

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Lower-case hex rendering of a 64-bit hash. */
std::string hexHash(uint64_t hash);

/** Peak resident set size of this process in MiB. */
double peakRssMb();

/**
 * Checks every batch's output. A workload's batches come in a fixed
 * number of kinds (sweep_cold issues one kind per workload of the
 * suite; the others have one kind): each batch must reproduce the
 * first hash seen for its kind, and the run's output hash (the kind
 * hash, or a hash over the kind hashes in kind order) must equal the
 * pinned hash when one is given. A mismatching batch fails all its
 * ops; a pin mismatch fails every op.
 */
class OutputCheck
{
  public:
    OutputCheck(std::string pinned, size_t kinds)
        : pinned_(std::move(pinned)), kindHashes_(kinds)
    {
    }

    /** Book a batch of @p ops of kind @p kind that hashed to
     *  @p hash. */
    void record(size_t kind, uint64_t ops, const std::string &hash);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const;

    /** The run's output hash (empty until every kind ran). */
    std::string hash() const;

  private:
    std::string pinned_;
    std::vector<std::string> kindHashes_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/** One timed batch of ops. */
struct Batch
{
    size_t kind = 0;
    uint64_t ops = 0;
    double seconds = 0.0;
};

/**
 * Ops per second at the quietest moment of the run. The work of a
 * batch is deterministic, so other tenants of the host can only slow
 * it down: a batch's time over the median time of its kind is how
 * slow the host was when it ran, and the smallest such ratio is the
 * quietest moment seen. The result is the ops of one batch per kind
 * over the sum of the kinds' median times, scaled to that moment; for
 * a workload of one kind it is simply the fastest batch's rate. The
 * per-batch rates also go to standard error, so a run's drift can be
 * read afterwards.
 */
double bestRate(const std::vector<Batch> &batches);

/**
 * In-memory span log of a traced run. Spans nest through an explicit
 * stack; a span's self time is its duration minus that of its direct
 * children. Root spans are the ops, so the roots' self time is the
 * part of the traced wall no layer span covers.
 */
class Trace
{
  public:
    Trace();

    /** RAII span: opens on construction, closes on destruction. */
    class Scope
    {
      public:
        Scope(Trace &trace, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Trace &trace_;
        size_t index_;
    };

    /** Record a finished span measured elsewhere as a child of the
     *  innermost open span (used for the library's own round span). */
    void addChild(const char *name, uint64_t duration_ns);

    /** Sum of self times of the spans called @p name, in seconds. */
    double selfSeconds(const std::string &name) const;

    /** Sum of durations of the spans called @p name, in seconds. */
    double totalSeconds(const std::string &name) const;

    /** Sum of the root spans' durations (the traced wall). */
    double rootSeconds() const;

    /** Share of the traced wall that layer (non-root) self times
     *  cover. */
    double coverage() const;

    /** Write every span as one JSON line to @p path. */
    void writeJsonl(const std::string &path) const;

    /** Print each layer's share of the traced wall (its spans' self
     *  time over the roots' duration) to standard error. */
    void printShares() const;

  private:
    struct Span
    {
        const char *name = "";
        int64_t parent = -1;
        uint64_t startNs = 0;
        uint64_t endNs = 0;
        uint64_t childNs = 0;
    };

    uint64_t nowNs() const;
    size_t open(const char *name);
    void close(size_t index);

    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<size_t> stack_;
};

/**
 * Closed loop: run @p body (batch index -> Batch with kind and ops
 * filled in) until @p seconds have passed and at least @p min_batches
 * ran, timing each call.
 */
template <typename Body>
std::vector<Batch>
closedLoop(double seconds, size_t min_batches, Body body)
{
    std::vector<Batch> batches;
    const Clock::time_point begin = Clock::now();
    while (batches.size() < min_batches ||
           secondsBetween(begin, Clock::now()) < seconds) {
        const Clock::time_point start = Clock::now();
        Batch batch = body(batches.size());
        batch.seconds = secondsBetween(start, Clock::now());
        batches.push_back(batch);
    }
    return batches;
}

/** The three workloads; each runs set-up, then the timed or traced
 *  phase, and fills in the metrics its --trace mode asks for. */
RunResult runSweepCold(const Options &options);
RunResult runResumeReplay(const Options &options);
RunResult runDaemonSoak(const Options &options);

} // namespace vmbench

#endif // VMBENCH_BENCH_HH
