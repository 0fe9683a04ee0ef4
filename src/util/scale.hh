/**
 * @file
 * Saturating scaled-count arithmetic for sampled counters.
 *
 * The simulation samples a fraction of each epoch's memory traffic
 * and scales the sampled miss counts back up to the epoch's true
 * totals; the PMU model derives dozens of counters as fixed fractions
 * of others. Both paths funnel through scaleCount() so the rounding
 * convention lives in exactly one place — and so a pathological
 * factor can never reach an out-of-range float-to-integer cast.
 */

#ifndef VMARGIN_UTIL_SCALE_HH
#define VMARGIN_UTIL_SCALE_HH

#include <cstdint>

namespace vmargin::util
{

/**
 * @p count scaled by @p factor, rounded half away from zero (the
 * llround convention every caller historically used), saturating at
 * the uint64_t range instead of overflowing: results at or beyond
 * 2^64 clamp to UINT64_MAX, negative or NaN products clamp to 0.
 * For every in-range product the result is bit-identical to
 * `static_cast<uint64_t>(std::llround(count * factor))`, computed
 * without the libm call: it runs ~55 times per simulated epoch.
 */
inline uint64_t
scaleCount(uint64_t count, double factor)
{
    const double scaled = static_cast<double>(count) * factor;
    if (!(scaled > 0.0))
        return 0; // negative products and NaN saturate at zero
    constexpr double kTwoPow63 = 9223372036854775808.0;
    constexpr double kTwoPow64 = 18446744073709551616.0;
    if (scaled >= kTwoPow64)
        return UINT64_MAX;
    if (scaled >= kTwoPow63) {
        // A double this large is integer-valued (granularity >=
        // 1024), so the half-away rounding is a no-op and a plain
        // cast is exact.
        return static_cast<uint64_t>(scaled);
    }
    // 0 < scaled < 2^63: truncate, then round up when the fraction
    // is at least one half. The subtraction is exact (Sterbenz for
    // scaled >= 1, trivially below 1, and 0 once scaled >= 2^52,
    // where every double is an integer), so this is llround's
    // half-away-from-zero rule bit for bit. The cast goes through
    // int64_t, which is one instruction on x86-64 (an unsigned cast
    // needs a branch for the top half of the range).
    const auto whole =
        static_cast<uint64_t>(static_cast<int64_t>(scaled));
    return whole +
           (scaled - static_cast<double>(whole) >= 0.5 ? 1 : 0);
}

} // namespace vmargin::util

#endif // VMARGIN_UTIL_SCALE_HH
