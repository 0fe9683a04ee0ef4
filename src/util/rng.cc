#include "rng.hh"

#include <cmath>

#include "logging.hh"

namespace vmargin::util
{

uint64_t
splitMix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

Seed
mixSeed(Seed base, uint64_t salt)
{
    // Feed both words through SplitMix64 so that nearby experiment
    // coordinates (voltage steps 5 mV apart, adjacent cores) produce
    // uncorrelated streams.
    uint64_t state = base ^ (salt * 0x9e3779b97f4a7c15ULL);
    uint64_t mixed = splitMix64(state);
    state ^= salt + 0x632be59bd9b4e019ULL;
    return mixed ^ splitMix64(state);
}

Seed
hashSeed(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ULL; // FNV offset basis
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL; // FNV prime
    }
    return mixSeed(h, text.size());
}

Rng::Rng(Seed seed)
{
    uint64_t state = seed;
    for (auto &word : s_)
        word = splitMix64(state);
    // xoshiro must not start from the all-zero state.
    if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0)
        s_[0] = 0x9e3779b97f4a7c15ULL;
}

void
Rng::panicEmptyRange(int64_t lo, int64_t hi)
{
    panicf("uniformInt: empty range [", lo, ", ", hi, "]");
}

double
Rng::gaussian()
{
    if (hasCachedGauss_) {
        hasCachedGauss_ = false;
        return cachedGauss_;
    }
    double u1 = uniform();
    double u2 = uniform();
    while (u1 <= 0.0)
        u1 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * M_PI * u2;
    cachedGauss_ = radius * std::sin(angle);
    hasCachedGauss_ = true;
    return radius * std::cos(angle);
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

uint64_t
Rng::poisson(double mean)
{
    if (mean <= 0.0)
        return 0;
    if (mean < 64.0) {
        // Knuth: multiply uniforms until below exp(-mean).
        const double threshold = std::exp(-mean);
        uint64_t count = 0;
        double product = uniform();
        while (product > threshold) {
            ++count;
            product *= uniform();
        }
        return count;
    }
    // Normal approximation with continuity correction.
    const double sample = gaussian(mean, std::sqrt(mean));
    return sample <= 0.0 ? 0 : static_cast<uint64_t>(sample + 0.5);
}

} // namespace vmargin::util
