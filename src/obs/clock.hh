/**
 * @file
 * Clock interface for the telemetry plane.
 *
 * Telemetry snapshots carry wall-clock timestamps and span records
 * carry steady-clock durations; both are injected through this
 * interface so tests can pin time and assert snapshot bytes exactly.
 * The rest of the system never reads these clocks — simulation time
 * is its own thing (sim/clock) — so pinning a telemetry clock can
 * never perturb a measurement.
 */

#ifndef VMARGIN_OBS_CLOCK_HH
#define VMARGIN_OBS_CLOCK_HH

#include <chrono>
#include <cstdint>

namespace vmargin::obs
{

/** Time source for telemetry timestamps and span durations. */
class Clock
{
  public:
    virtual ~Clock() = default;

    /** Wall-clock milliseconds since the Unix epoch. */
    virtual int64_t wallMillis() const = 0;

    /** Monotonic nanoseconds (comparable only to itself). */
    virtual uint64_t steadyNanos() const = 0;
};

/** The real clocks (the default everywhere). */
class SystemClock final : public Clock
{
  public:
    int64_t wallMillis() const override
    {
        return std::chrono::duration_cast<std::chrono::milliseconds>(
                   std::chrono::system_clock::now()
                       .time_since_epoch())
            .count();
    }

    uint64_t steadyNanos() const override
    {
        return static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    /** Process-wide instance. */
    static const SystemClock &instance();
};

/** Hand-cranked clock for tests: time moves only via advance(). */
class ManualClock final : public Clock
{
  public:
    explicit ManualClock(int64_t wall_ms = 0, uint64_t steady_ns = 0)
        : wallMs_(wall_ms), steadyNs_(steady_ns)
    {
    }

    int64_t wallMillis() const override { return wallMs_; }
    uint64_t steadyNanos() const override { return steadyNs_; }

    void advanceMillis(int64_t ms)
    {
        wallMs_ += ms;
        steadyNs_ += static_cast<uint64_t>(ms) * 1000000ull;
    }

  private:
    int64_t wallMs_ = 0;
    uint64_t steadyNs_ = 0;
};

} // namespace vmargin::obs

#endif // VMARGIN_OBS_CLOCK_HH
