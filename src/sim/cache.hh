/**
 * @file
 * Functional set-associative cache model with LRU replacement.
 *
 * The characterization study needs realistic access/miss/writeback
 * counts per level (they feed the PMU counters, the EDAC location
 * attribution and the energy model), not timing. The model is
 * therefore purely functional: a tag array with true LRU, write-back
 * write-allocate policy, and per-level protection metadata (parity
 * for the L1s, SECDED ECC for L2/L3, paper Table 2).
 */

#ifndef VMARGIN_SIM_CACHE_HH
#define VMARGIN_SIM_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace vmargin::sim
{

/** Array protection scheme (Table 2). */
enum class Protection
{
    Parity, ///< detect-only (L1I, L1D)
    Ecc     ///< SECDED: corrects 1 bit, detects 2 (L2, L3)
};

/** Outcome of a single cache lookup. */
struct AccessResult
{
    bool hit = false;
    bool evictedDirty = false; ///< a dirty victim was written back
    size_t slot = 0; ///< the way hit or filled (see Cache::repeatHit)
};

/** Running statistics of one cache instance. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t writebacks = 0; ///< dirty evictions
    uint64_t fills = 0;      ///< lines allocated

    /** Miss ratio; 0 when no accesses. */
    double missRatio() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }

    void reset() { *this = CacheStats(); }
};

/**
 * One set-associative, write-back, write-allocate cache.
 *
 * Valid-prefix sets: a miss fills the first invalid way of its set,
 * and only invalidateAll() ever invalidates a way, so a set's valid
 * ways are always ways [0, fill) for a per-set fill count. The hit
 * scan covers only that prefix; a miss in a set that is not full
 * takes way fill without a victim scan (the first invalid way is
 * the way the full scan would have chosen); the LRU scan runs only
 * when the set is full. invalidateAll() zeroes the fill counts.
 * Hits, victims and writebacks are therefore exactly those of a
 * cache with a valid bit per way, first-invalid fill and true LRU.
 *
 * Same-line repeats: access() returns the slot it hit or filled, and
 * repeatHit() serves the next access to that same line from the slot
 * (the hierarchy's batch walks use it for back-to-back accesses to
 * one L1 line). On an 8-core characterization sweep 63% of data
 * accesses repeat the line of the access before them, and the L3,
 * which misses 97% of its probes, rarely fills between power cycles,
 * so both rules remove most of the scanning (DESIGN.md §8).
 */
class Cache
{
  public:
    /**
     * @param name instance name for diagnostics ("core3.l1d")
     * @param size_kb total capacity
     * @param assoc ways per set (at most kMaxAssoc)
     * @param line_bytes line size (power of two)
     * @param protection parity or ECC
     */
    Cache(std::string name, int size_kb, int assoc, int line_bytes,
          Protection protection);

    /** Largest associativity a set's fill count can hold. */
    static constexpr int kMaxAssoc = 255;

    /**
     * Look up @p addr; on a miss the line is allocated (into the
     * first invalid way, else evicting the LRU way). @p is_write
     * marks the line dirty on hit/allocate. The result names the
     * slot hit or filled. Defined inline below — it is the innermost
     * loop of every characterization run and must inline into the
     * hierarchy's batch walks.
     */
    AccessResult access(uint64_t addr, bool is_write);

    /**
     * Serve an access to the line the previous access() of this
     * cache returned as @p slot, with no access() in between: that
     * line is still valid in @p slot, so the access is a hit. Does
     * exactly what access() would: advances the use clock, counts a
     * hit and the write, and stamps the slot (setting its dirty bit
     * on a write). No other line's state can tell the difference.
     */
    void repeatHit(size_t slot, bool is_write)
    {
        ++useClock_;
        ++hits_;
        writes_ += is_write ? 1 : 0;
        uint64_t &use = lastUse_[slot];
        use = (useClock_ << 1) | (is_write ? 1 : (use & 1));
    }

    /** Line tag of @p addr: two addresses share a line iff their
     *  tags are equal. */
    uint64_t tagOf(uint64_t addr) const;

    /** Probe without side effects: would @p addr hit? */
    bool contains(uint64_t addr) const;

    /** Drop every line (power cycle); statistics survive. */
    void invalidateAll();

    /**
     * Assembled on demand: the hot path only maintains the
     * non-derivable counters (clock, writes, hits, writebacks);
     * accesses is the clock delta since the last reset, and
     * reads/misses/fills follow arithmetically (every miss fills
     * exactly one line in this write-allocate model).
     */
    CacheStats stats() const
    {
        CacheStats s;
        s.accesses = useClock_ - clockAtReset_;
        s.writes = writes_;
        s.reads = s.accesses - writes_;
        s.hits = hits_;
        s.misses = s.accesses - hits_;
        s.fills = s.misses;
        s.writebacks = writebacks_;
        return s;
    }

    void resetStats()
    {
        clockAtReset_ = useClock_;
        writes_ = 0;
        hits_ = 0;
        writebacks_ = 0;
    }

    const std::string &name() const { return name_; }
    Protection protection() const { return protection_; }
    int sizeKb() const { return sizeKb_; }
    int associativity() const { return assoc_; }
    int lineBytes() const { return lineBytes_; }
    size_t numSets() const { return sets_; }

    /** Number of currently valid lines (for tests/self-checks). */
    size_t validLines() const;

  private:
    size_t setIndex(uint64_t addr) const;

    /** access() body with the associativity as a compile-time
     *  constant when non-zero (the scans fully unroll); 0 falls back
     *  to the runtime member for unusual geometries. */
    template <int kAssoc>
    AccessResult accessImpl(uint64_t addr, bool is_write);

    std::string name_;
    int sizeKb_;
    int assoc_;
    int lineBytes_;
    Protection protection_;
    size_t sets_;
    int lineShift_;

    /**
     * Per-set state in structure-of-arrays layout, sets_ x assoc_
     * row-major: keys_ holds each way's bare line tag, so the hit
     * scan is one 64-bit compare per valid way over one contiguous
     * cache line per set. fill_ holds each set's valid-way count;
     * it is the only array that needs zero-initialization. keys_ and
     * lastUse_ are allocated uninitialized (a way at or past its
     * set's fill count is never read before it is filled), which
     * keeps per-cell platform construction cheap, and
     * invalidateAll() clears only the fill counts (8 KiB for the
     * X-Gene 2's 8 MB L3, not its tag array).
     *
     * lastUse_ packs (useClock << 1 | dirty): the clock strictly
     * increases, so two ways never share a clock value and the LRU
     * comparison on the packed values orders exactly like the bare
     * clocks — folding the dirty bit in saves a whole separate
     * byte array (and its cache-line traffic) on the hot path.
     */
    std::unique_ptr<uint64_t[]> keys_;
    std::unique_ptr<uint64_t[]> lastUse_;
    std::unique_ptr<uint8_t[]> fill_;

    uint64_t useClock_ = 0;
    uint64_t clockAtReset_ = 0;
    uint64_t writes_ = 0;
    uint64_t hits_ = 0;
    uint64_t writebacks_ = 0;
};

inline size_t
Cache::setIndex(uint64_t addr) const
{
    return (addr >> lineShift_) & (sets_ - 1);
}

inline uint64_t
Cache::tagOf(uint64_t addr) const
{
    return addr >> lineShift_;
}

template <int kAssoc>
inline AccessResult
Cache::accessImpl(uint64_t addr, bool is_write)
{
    const int assoc = kAssoc ? kAssoc : assoc_;

    ++useClock_;
    writes_ += is_write ? 1 : 0;

    const size_t set = setIndex(addr);
    const size_t base = set * static_cast<size_t>(assoc);
    const uint64_t tag = tagOf(addr);
    const uint64_t *keys = keys_.get() + base;
    const int fill = fill_[set];

    AccessResult result;
    // Hit scan over the valid prefix only, kept free of victim
    // bookkeeping: hits are the common outcome and this loop is the
    // innermost code of the whole simulator.
    for (int w = 0; w < fill; ++w) {
        if (keys[w] == tag) {
            ++hits_;
            result.slot = base + static_cast<size_t>(w);
            uint64_t &use = lastUse_[result.slot];
            use = (useClock_ << 1) | (is_write ? 1 : (use & 1));
            result.hit = true;
            return result;
        }
    }

    // Miss: a set with an invalid way fills way `fill` (the first
    // invalid one); only a full set evicts its least recently used
    // way (first-encountered on ties).
    int victim = fill;
    if (fill < assoc) {
        fill_[set] = static_cast<uint8_t>(fill + 1);
    } else {
        const uint64_t *use = lastUse_.get() + base;
        victim = 0;
        for (int w = 1; w < assoc; ++w)
            if (use[w] < use[victim])
                victim = w;
        if (use[victim] & 1) {
            ++writebacks_;
            result.evictedDirty = true;
        }
    }
    result.slot = base + static_cast<size_t>(victim);
    keys_[result.slot] = tag;
    lastUse_[result.slot] = (useClock_ << 1) | (is_write ? 1 : 0);
    return result;
}

inline AccessResult
Cache::access(uint64_t addr, bool is_write)
{
    // The X-Gene 2 geometries are 8-way (L1s, L2) and 16-way (L3);
    // dispatching on the associativity gives those bodies
    // fixed-trip-count LRU scans the compiler unrolls fully. Each
    // Cache instance always takes the same arm, so the branch
    // predicts perfectly inside the batch loops.
    switch (assoc_) {
    case 8:
        return accessImpl<8>(addr, is_write);
    case 16:
        return accessImpl<16>(addr, is_write);
    default:
        return accessImpl<0>(addr, is_write);
    }
}

} // namespace vmargin::sim

#endif // VMARGIN_SIM_CACHE_HH
