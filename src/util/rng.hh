/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic element of the simulated platform draws from an Rng
 * seeded by hashing a tuple of experiment coordinates (chip serial,
 * core, workload, voltage, run index, ...). This makes each
 * characterization run exactly reproducible and independent of
 * execution order, which the campaign layer relies on when it re-runs
 * configurations after a simulated system crash.
 *
 * The generator is xoshiro256**, seeded through SplitMix64 as its
 * authors recommend.
 */

#ifndef VMARGIN_UTIL_RNG_HH
#define VMARGIN_UTIL_RNG_HH

#include <cstdint>
#include <string>

#include "types.hh"

namespace vmargin::util
{

/** One SplitMix64 step; also used as the seed/stream mixer. */
uint64_t splitMix64(uint64_t &state);

/**
 * Combine seed material into a single 64-bit stream identifier.
 * Order-sensitive: mixSeed(a, b) != mixSeed(b, a) in general.
 */
Seed mixSeed(Seed base, uint64_t salt);

/** Hash a string into seed material (FNV-1a, then mixed). */
Seed hashSeed(const std::string &text);

/**
 * xoshiro256** pseudo random generator with distribution helpers.
 *
 * Satisfies the bare minimum of UniformRandomBitGenerator but we use
 * our own distribution code so results are identical across standard
 * library implementations.
 */
class Rng
{
  public:
    /** Construct from a single seed, expanded via SplitMix64. */
    explicit Rng(Seed seed);

    // next/uniform/uniformInt and the Bernoulli helpers are defined
    // inline below the class: they are drawn millions of times per
    // characterization sweep (every sampled address and every fault
    // trial) and must inline into the kernel's batch loops.

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] (inclusive). */
    int64_t uniformInt(int64_t lo, int64_t hi);

    /** Standard normal deviate (Box-Muller, cached pair). */
    double gaussian();

    /** Normal deviate with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /** Bernoulli trial with success probability p (clamped to [0,1]);
     *  bernoulliBelow(bernoulliThreshold(p)). */
    bool bernoulli(double p);

    /**
     * The integer threshold T of a Bernoulli(@p p) trial: uniform()
     * < clamp(p) holds exactly when next() >> 11 < T, with T =
     * ceil(clamp(p) * 2^53) (scaling by 2^53 is exact, and x < y
     * equals x < ceil(y) for an integer x). NaN gives 0, never true,
     * as the float comparison does. Hot loops compute T once per
     * stream or run and draw with bernoulliBelow().
     */
    static uint64_t bernoulliThreshold(double p);

    /** One Bernoulli trial against a bernoulliThreshold() value;
     *  consumes exactly one next(). */
    bool bernoulliBelow(uint64_t threshold);

    /**
     * Poisson deviate with the given mean. Uses Knuth's method for
     * small means and a normal approximation above 64 (adequate for
     * event-count sampling).
     */
    uint64_t poisson(double mean);

    // UniformRandomBitGenerator interface
    using result_type = uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }
    result_type operator()() { return next(); }

  private:
    /** Cold out-of-line panic keeping uniformInt's inline body
     *  branch-light. */
    [[noreturn]] static void panicEmptyRange(int64_t lo, int64_t hi);

    static uint64_t rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t s_[4];
    double cachedGauss_ = 0.0;
    bool hasCachedGauss_ = false;
};

inline uint64_t
Rng::next()
{
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

inline double
Rng::uniform()
{
    // 53 random mantissa bits -> uniform in [0, 1).
    return (next() >> 11) * 0x1.0p-53;
}

inline double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

inline int64_t
Rng::uniformInt(int64_t lo, int64_t hi)
{
    if (lo > hi)
        panicEmptyRange(lo, hi);
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<int64_t>(next());
    // Rejection sampling to avoid modulo bias.
    const uint64_t limit = (~0ULL / span) * span;
    uint64_t value = next();
    while (value >= limit)
        value = next();
    return lo + static_cast<int64_t>(value % span);
}

inline uint64_t
Rng::bernoulliThreshold(double p)
{
    constexpr uint64_t kOne = 1ULL << 53;
    if (!(p > 0.0))
        return 0; // zero, negative and NaN: never true
    if (p >= 1.0)
        return kOne; // every 53-bit draw is below 2^53
    const double scaled = p * 0x1.0p53; // exact, and < 2^53
    const auto floor = static_cast<uint64_t>(scaled);
    return floor + (static_cast<double>(floor) < scaled ? 1 : 0);
}

inline bool
Rng::bernoulliBelow(uint64_t threshold)
{
    return (next() >> 11) < threshold;
}

inline bool
Rng::bernoulli(double p)
{
    return bernoulliBelow(bernoulliThreshold(p));
}

} // namespace vmargin::util

#endif // VMARGIN_UTIL_RNG_HH
