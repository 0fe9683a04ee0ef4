/**
 * @file
 * Equivalence of the cache hierarchy's batch walks with a plain
 * reference model.
 *
 * The production Cache keeps each set's valid ways as a prefix
 * [0, fill) and the batch walks look up only the first access of
 * each same-line run, applying the rest of the run in one step on
 * the slot that access used. Both are claimed to leave every
 * count and every line exactly where a textbook cache would. The
 * reference below is that textbook cache: an explicit valid bit per
 * way, first-invalid victim, otherwise true LRU, write-back
 * write-allocate, walked one access at a time. Seeded random streams
 * full of same-line runs, with power cycles between batches, drive
 * both, and every observable must match after every batch.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "sim/cache_hierarchy.hh"
#include "util/rng.hh"

namespace vmargin::sim
{
namespace
{

/** One cache the obvious way: a valid bit per way, true LRU. */
class ReferenceCache
{
  public:
    ReferenceCache(int size_kb, int assoc, int line_bytes)
        : assoc_(static_cast<size_t>(assoc))
    {
        while ((1 << lineShift_) < line_bytes)
            ++lineShift_;
        const size_t lines = static_cast<size_t>(size_kb) * 1024 /
                             static_cast<size_t>(line_bytes);
        sets_ = lines / assoc_;
        ways_.resize(lines);
    }

    AccessResult access(uint64_t addr, bool is_write)
    {
        ++clock_;
        ++stats_.accesses;
        ++(is_write ? stats_.writes : stats_.reads);
        const uint64_t tag = addr >> lineShift_;
        Way *set = &ways_[(tag & (sets_ - 1)) * assoc_];
        AccessResult result;
        for (size_t w = 0; w < assoc_; ++w) {
            if (set[w].valid && set[w].tag == tag) {
                ++stats_.hits;
                set[w].lastUse = clock_;
                set[w].dirty = set[w].dirty || is_write;
                result.hit = true;
                return result;
            }
        }
        ++stats_.misses;
        ++stats_.fills;
        size_t victim = assoc_;
        for (size_t w = 0; w < assoc_ && victim == assoc_; ++w)
            if (!set[w].valid)
                victim = w;
        if (victim == assoc_) {
            victim = 0;
            for (size_t w = 1; w < assoc_; ++w)
                if (set[w].lastUse < set[victim].lastUse)
                    victim = w;
            if (set[victim].dirty) {
                ++stats_.writebacks;
                result.evictedDirty = true;
            }
        }
        set[victim] = Way{true, is_write, tag, clock_};
        return result;
    }

    bool contains(uint64_t addr) const
    {
        const uint64_t tag = addr >> lineShift_;
        const Way *set = &ways_[(tag & (sets_ - 1)) * assoc_];
        for (size_t w = 0; w < assoc_; ++w)
            if (set[w].valid && set[w].tag == tag)
                return true;
        return false;
    }

    size_t validLines() const
    {
        size_t count = 0;
        for (const Way &way : ways_)
            count += way.valid ? 1 : 0;
        return count;
    }

    void invalidateAll()
    {
        for (Way &way : ways_)
            way.valid = false;
    }

    void resetStats() { stats_ = CacheStats(); }
    const CacheStats &stats() const { return stats_; }

  private:
    struct Way
    {
        bool valid = false;
        bool dirty = false;
        uint64_t tag = 0;
        uint64_t lastUse = 0;
    };

    size_t assoc_;
    size_t sets_ = 0;
    int lineShift_ = 0;
    std::vector<Way> ways_;
    uint64_t clock_ = 0;
    CacheStats stats_;
};

/** The X-Gene 2 topology over reference caches, one access a time. */
class ReferenceHierarchy
{
  public:
    explicit ReferenceHierarchy(const XGene2Params &p) : params_(p)
    {
        for (CoreId c = 0; c < p.numCores; ++c) {
            l1i.emplace_back(p.l1iKb, p.l1iAssoc, p.cacheLineBytes);
            l1d.emplace_back(p.l1dKb, p.l1dAssoc, p.cacheLineBytes);
        }
        for (PmdId pmd = 0; pmd < p.numPmds; ++pmd)
            l2.emplace_back(p.l2Kb, p.l2Assoc, p.cacheLineBytes);
        l3.emplace_back(p.l3Kb, p.l3Assoc, p.cacheLineBytes);
    }

    /** Walk one data access at global address @p global. */
    void data(CoreId core, uint64_t global, bool write,
              DataBatchCounts &out)
    {
        const AccessResult r1 = l1d[index(core)].access(global, write);
        if (r1.hit)
            return;
        ++out.l1Miss;
        ReferenceCache &l2c = l2[index(params_.pmdOfCore(core))];
        if (r1.evictedDirty) {
            ++out.writebacksFromL1;
            l2c.access(global ^ 0x1000, true);
        }
        const AccessResult r2 = l2c.access(global, write);
        if (r2.hit)
            return;
        ++out.l2Miss;
        if (r2.evictedDirty) {
            ++out.writebacksFromL2;
            l3[0].access(global ^ 0x2000, true);
        }
        out.l3Miss += l3[0].access(global, write).hit ? 0 : 1;
    }

    /** Walk one instruction fetch at global address @p global. */
    void fetch(CoreId core, uint64_t global, InstrBatchCounts &out)
    {
        if (l1i[index(core)].access(global, false).hit)
            return;
        ++out.l1Miss;
        if (l2[index(params_.pmdOfCore(core))].access(global, false)
                .hit)
            return;
        ++out.l2Miss;
        l3[0].access(global, false);
    }

    template <typename Fn> void forEach(Fn fn)
    {
        for (auto *level : {&l1i, &l1d, &l2, &l3})
            for (ReferenceCache &cache : *level)
                fn(cache);
    }

    static size_t index(int id) { return static_cast<size_t>(id); }

    std::vector<ReferenceCache> l1i, l1d, l2, l3;

  private:
    XGene2Params params_;
};

void
expectSameStats(const CacheStats &got, const CacheStats &want,
                const std::string &name)
{
    SCOPED_TRACE(name);
    EXPECT_EQ(got.accesses, want.accesses);
    EXPECT_EQ(got.reads, want.reads);
    EXPECT_EQ(got.writes, want.writes);
    EXPECT_EQ(got.hits, want.hits);
    EXPECT_EQ(got.misses, want.misses);
    EXPECT_EQ(got.writebacks, want.writebacks);
    EXPECT_EQ(got.fills, want.fills);
}

/**
 * A production hierarchy and its reference, driven in lockstep. Each
 * batch goes through the hierarchy's batch walk and, one access at a
 * time, through the reference; then every observable must match.
 */
class Lockstep
{
  public:
    explicit Lockstep(const XGene2Params &params)
        : params_(params), hierarchy_(params), reference_(params)
    {
    }

    /** Power-cycle both (every line invalid, stats kept). */
    void invalidateAll()
    {
        hierarchy_.invalidateAll();
        reference_.forEach(
            [](ReferenceCache &cache) { cache.invalidateAll(); });
    }

    void resetStats()
    {
        hierarchy_.resetStats();
        reference_.forEach(
            [](ReferenceCache &cache) { cache.resetStats(); });
    }

    /**
     * Walk one batch by @p core (a fetch batch when @p fetch, which
     * ignores @p writes) and compare the returned counts, every line
     * the batch touched at every level, and every cache's statistics
     * and valid-line count.
     */
    void batch(CoreId core, bool fetch,
               const std::vector<uint64_t> &addrs,
               const std::vector<uint8_t> &writes)
    {
        const XGene2Params &params = params_;
        const auto count = static_cast<uint32_t>(addrs.size());
        // The walks' address spaces: per core, code above 2^39.
        const uint64_t base = (static_cast<uint64_t>(core) << 40) +
                              (fetch ? 1ULL << 39 : 0);
        if (fetch) {
            const InstrBatchCounts got =
                hierarchy_.instrFetchBatch(core, addrs.data(), count);
            InstrBatchCounts want;
            for (const uint64_t a : addrs)
                reference_.fetch(core, a + base, want);
            EXPECT_EQ(got.l1Miss, want.l1Miss);
            EXPECT_EQ(got.l2Miss, want.l2Miss);
        } else {
            ASSERT_EQ(writes.size(), addrs.size());
            const DataBatchCounts got = hierarchy_.dataAccessBatch(
                core, addrs.data(), writes.data(), count);
            DataBatchCounts want;
            for (uint32_t i = 0; i < count; ++i)
                reference_.data(core, addrs[i] + base, writes[i] != 0,
                                want);
            EXPECT_EQ(got.l1Miss, want.l1Miss);
            EXPECT_EQ(got.writebacksFromL1, want.writebacksFromL1);
            EXPECT_EQ(got.l2Miss, want.l2Miss);
            EXPECT_EQ(got.writebacksFromL2, want.writebacksFromL2);
            EXPECT_EQ(got.l3Miss, want.l3Miss);
        }

        const auto c = ReferenceHierarchy::index(core);
        const auto pmd =
            ReferenceHierarchy::index(params.pmdOfCore(core));
        const Cache &l1 =
            fetch ? hierarchy_.l1i(core) : hierarchy_.l1d(core);
        const ReferenceCache &ref_l1 =
            fetch ? reference_.l1i[c] : reference_.l1d[c];
        // Every line the batch touched, and where its writebacks
        // went in the lower levels.
        const std::set<uint64_t> touched(addrs.begin(), addrs.end());
        for (const uint64_t a : touched) {
            const uint64_t g = a + base;
            ASSERT_EQ(l1.contains(g), ref_l1.contains(g)) << a;
            for (const uint64_t probe : {g, g ^ 0x1000})
                ASSERT_EQ(hierarchy_.l2(params.pmdOfCore(core))
                              .contains(probe),
                          reference_.l2[pmd].contains(probe))
                    << a;
            for (const uint64_t probe : {g, g ^ 0x2000})
                ASSERT_EQ(hierarchy_.l3().contains(probe),
                          reference_.l3[0].contains(probe))
                    << a;
        }

        for (CoreId k = 0; k < params.numCores; ++k) {
            const auto i = ReferenceHierarchy::index(k);
            expectSameStats(hierarchy_.l1i(k).stats(),
                            reference_.l1i[i].stats(), "l1i");
            expectSameStats(hierarchy_.l1d(k).stats(),
                            reference_.l1d[i].stats(), "l1d");
            EXPECT_EQ(hierarchy_.l1i(k).validLines(),
                      reference_.l1i[i].validLines());
            EXPECT_EQ(hierarchy_.l1d(k).validLines(),
                      reference_.l1d[i].validLines());
        }
        for (PmdId p = 0; p < params.numPmds; ++p) {
            const auto i = ReferenceHierarchy::index(p);
            expectSameStats(hierarchy_.l2(p).stats(),
                            reference_.l2[i].stats(), "l2");
            EXPECT_EQ(hierarchy_.l2(p).validLines(),
                      reference_.l2[i].validLines());
        }
        expectSameStats(hierarchy_.l3().stats(),
                        reference_.l3[0].stats(), "l3");
        EXPECT_EQ(hierarchy_.l3().validLines(),
                  reference_.l3[0].validLines());
    }

    const CacheHierarchy &hierarchy() const { return hierarchy_; }

  private:
    XGene2Params params_;
    CacheHierarchy hierarchy_;
    ReferenceHierarchy reference_;
};

/**
 * A random batch of @p count accesses over @p footprint_lines lines:
 * each access stays on the previous access's line (any byte of it)
 * with probability @p stay, and writes with probability 0.3.
 */
void
randomBatch(util::Rng &rng, uint64_t line, uint64_t footprint_lines,
            double stay, uint32_t count, std::vector<uint64_t> &addrs,
            std::vector<uint8_t> &writes)
{
    addrs.clear();
    writes.clear();
    uint64_t addr = 0;
    for (uint32_t i = 0; i < count; ++i) {
        if (i == 0 || !rng.bernoulli(stay)) {
            const auto index = static_cast<uint64_t>(rng.uniformInt(
                0, static_cast<int64_t>(footprint_lines) - 1));
            addr = index * line;
        }
        addrs.push_back((addr & ~(line - 1)) +
                        static_cast<uint64_t>(rng.uniformInt(
                            0, static_cast<int64_t>(line) - 1)));
        writes.push_back(rng.bernoulli(0.3) ? 1 : 0);
    }
}

/**
 * Drive @p params' hierarchy and its reference with @p batches
 * random batches from @p seed, comparing after each one. Addresses
 * come from a footprint of @p footprint_lines lines per core; an
 * access stays on the previous line with probability @p stay
 * (same-line runs), and about one batch in eight is preceded by a
 * power cycle.
 */
void
runEquivalence(const XGene2Params &params, uint64_t footprint_lines,
               uint64_t seed, int batches, double stay = 0.6)
{
    Lockstep lockstep(params);
    util::Rng rng(seed);
    const auto line = static_cast<uint64_t>(params.cacheLineBytes);

    std::vector<uint64_t> addrs;
    std::vector<uint8_t> writes;
    for (int batch = 0; batch < batches; ++batch) {
        SCOPED_TRACE("batch " + std::to_string(batch));
        if (rng.bernoulli(0.125))
            lockstep.invalidateAll();
        if (rng.bernoulli(0.05))
            lockstep.resetStats();

        const auto core = static_cast<CoreId>(
            rng.uniformInt(0, params.numCores - 1));
        const bool fetch = rng.bernoulli(0.3);
        const auto count =
            static_cast<uint32_t>(rng.uniformInt(0, 400));
        randomBatch(rng, line, footprint_lines, stay, count, addrs,
                    writes);
        lockstep.batch(core, fetch, addrs, writes);
        if (testing::Test::HasFailure())
            return;
    }
}

/** Geometry small enough that every level fills and evicts. */
XGene2Params
smallParams()
{
    XGene2Params params;
    params.l1iKb = 2;
    params.l1dKb = 2;
    params.l2Kb = 8;
    params.l3Kb = 32;
    return params;
}

TEST(CacheEquivalence, XGene2Geometry)
{
    // The real geometry (8-way L1s and L2, 16-way L3); a footprint
    // of four L2s per core overflows the L1s and L2s.
    runEquivalence(XGene2Params{}, 16384, 11, 300);
}

TEST(CacheEquivalence, SmallXGene2ShapedGeometry)
{
    // The same 8- and 16-way bodies with every level small enough
    // that sets fill and evict at all three levels, L3 included.
    runEquivalence(smallParams(), 1024, 12, 600);
}

TEST(CacheEquivalence, LongRuns)
{
    // Runs of ~20 accesses on average, many of them longer than a
    // whole small batch.
    runEquivalence(smallParams(), 1024, 14, 600, 0.95);
    runEquivalence(XGene2Params{}, 16384, 15, 300, 0.95);
}

TEST(CacheEquivalence, EmptyAndSingleAccessBatches)
{
    Lockstep lockstep(smallParams());
    lockstep.batch(0, false, {}, {});
    lockstep.batch(0, true, {}, {});
    lockstep.batch(0, false, {0x40}, {1});
    lockstep.batch(0, true, {0x40}, {0});
    lockstep.batch(0, false, {}, {});
    lockstep.batch(0, false, {0x48}, {0}); // a repeat across batches
    lockstep.batch(1, false, {0x40}, {0});
    EXPECT_EQ(lockstep.hierarchy().l1d(0).stats().accesses, 2u);
    EXPECT_EQ(lockstep.hierarchy().l1d(0).stats().hits, 1u);
}

TEST(CacheEquivalence, WriteOnlyInTheTailIsWrittenBack)
{
    // A run whose head reads and whose only write is its last
    // access: the line must leave L1 dirty. Nine more lines of the
    // same L1 set (2 KiB, 8-way, 64 B lines: 4 sets, stride 256)
    // then evict it, and the eviction must write it back.
    Lockstep lockstep(smallParams());
    std::vector<uint64_t> addrs = {0x1000, 0x1008, 0x1010, 0x1038};
    std::vector<uint8_t> writes = {0, 0, 0, 1};
    for (uint64_t k = 1; k <= 9; ++k) {
        addrs.push_back(0x1000 + k * 256);
        writes.push_back(0);
    }
    lockstep.batch(2, false, addrs, writes);
    EXPECT_EQ(lockstep.hierarchy().l1d(2).stats().writebacks, 1u);
    EXPECT_EQ(lockstep.hierarchy().l1d(2).stats().writes, 1u);

    // The same with the eviction in a later batch: the run's head
    // (a read) starts the second batch and its tail writes.
    lockstep.invalidateAll();
    lockstep.batch(3, false, {0x2000}, {0});
    lockstep.batch(3, false, {0x2000, 0x2004, 0x2008}, {0, 1, 0});
    addrs.clear();
    writes.clear();
    for (uint64_t k = 1; k <= 9; ++k) {
        addrs.push_back(0x2000 + k * 256);
        writes.push_back(0);
    }
    lockstep.batch(3, false, addrs, writes);
    EXPECT_EQ(lockstep.hierarchy().l1d(3).stats().writebacks, 1u);
}

TEST(CacheEquivalence, RunsCrossingTheChunkEdge)
{
    // The walks split a batch into stack chunks of a few hundred
    // accesses. Batches of 1000+ accesses put runs across every
    // chunk edge and run heads right on and next to them, with the
    // only write of a long run far into a later chunk.
    const XGene2Params params = smallParams();
    Lockstep lockstep(params);
    util::Rng rng(16);
    std::vector<uint64_t> addrs;
    std::vector<uint8_t> writes;
    for (const bool fetch : {false, true}) {
        addrs.assign(1200, 0);
        writes.assign(1200, 0);
        // The line changes at these indices; everything between is
        // one run (byte offsets vary within the line).
        const std::set<uint32_t> heads = {0,   1,   255, 256,  257, 300,
                                          511, 512, 600, 1100, 1199};
        uint64_t line = 0;
        for (uint32_t i = 0; i < 1200; ++i) {
            if (heads.count(i))
                line = (line + 1 +
                        static_cast<uint64_t>(rng.uniformInt(0, 40))) %
                       1024;
            addrs[i] = line * 64 + static_cast<uint64_t>(i % 64);
        }
        writes[900] = 1; // inside the run 600..1099
        writes[256] = 1; // a one-access run on a chunk's first index
        lockstep.batch(4, fetch, addrs, writes);
        ASSERT_FALSE(testing::Test::HasFailure());
        // Then evict everything with random traffic and compare.
        for (int round = 0; round < 4; ++round) {
            randomBatch(rng, 64, 1024, 0.95, 1500, addrs, writes);
            lockstep.batch(4, fetch, addrs, writes);
            ASSERT_FALSE(testing::Test::HasFailure());
        }
    }
}

TEST(CacheEquivalence, PmdPairAlternatesOnTheSharedL2)
{
    // Cores 0 and 1 share PMD 0's L2: alternating batches of the two
    // interleave their fills, evictions and writebacks there, while
    // each core's L1 keeps its own runs.
    const XGene2Params params = smallParams();
    ASSERT_EQ(params.pmdOfCore(0), params.pmdOfCore(1));
    Lockstep lockstep(params);
    util::Rng rng(17);
    std::vector<uint64_t> addrs;
    std::vector<uint8_t> writes;
    for (int batch = 0; batch < 400; ++batch) {
        SCOPED_TRACE("batch " + std::to_string(batch));
        const CoreId core = batch % 2;
        randomBatch(rng, 64, 512, 0.7,
                    static_cast<uint32_t>(rng.uniformInt(0, 300)), addrs,
                    writes);
        lockstep.batch(core, rng.bernoulli(0.2), addrs, writes);
        if (testing::Test::HasFailure())
            return;
    }
}

TEST(CacheEquivalence, GenericAssociativities)
{
    // Associativities with no fixed-size body (2-, 4- and 12-way).
    XGene2Params params;
    params.l1iKb = 2;
    params.l1iAssoc = 4;
    params.l1dKb = 1;
    params.l1dAssoc = 2;
    params.l2Kb = 4;
    params.l2Assoc = 4;
    params.l3Kb = 12;
    params.l3Assoc = 12;
    runEquivalence(params, 512, 13, 600);
}

} // namespace
} // namespace vmargin::sim
