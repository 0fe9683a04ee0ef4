/**
 * @file
 * Equivalence of the cache hierarchy's batch walks with a plain
 * reference model.
 *
 * The production Cache keeps each set's valid ways as a prefix
 * [0, fill) and the batch walks serve same-line repeats from the
 * slot the previous access used. Both are claimed to leave every
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
 * Drive @p params' hierarchy and its reference with @p batches
 * random batches from @p seed, comparing after each one. Addresses
 * come from a footprint of @p footprint_lines lines per core; most
 * accesses repeat the previous line (same-line runs), and about one
 * batch in eight is preceded by a power cycle.
 */
void
runEquivalence(const XGene2Params &params, uint64_t footprint_lines,
               uint64_t seed, int batches)
{
    CacheHierarchy hierarchy(params);
    ReferenceHierarchy reference(params);
    util::Rng rng(seed);
    const auto line = static_cast<uint64_t>(params.cacheLineBytes);

    std::vector<uint64_t> addrs;
    std::vector<uint8_t> writes;
    for (int batch = 0; batch < batches; ++batch) {
        SCOPED_TRACE("batch " + std::to_string(batch));
        if (rng.bernoulli(0.125)) {
            hierarchy.invalidateAll();
            reference.forEach(
                [](ReferenceCache &cache) { cache.invalidateAll(); });
        }
        if (rng.bernoulli(0.05)) {
            hierarchy.resetStats();
            reference.forEach(
                [](ReferenceCache &cache) { cache.resetStats(); });
        }

        const auto core = static_cast<CoreId>(
            rng.uniformInt(0, params.numCores - 1));
        const bool fetch = rng.bernoulli(0.3);
        const auto count =
            static_cast<uint32_t>(rng.uniformInt(0, 400));
        addrs.clear();
        writes.clear();
        uint64_t addr = 0;
        for (uint32_t i = 0; i < count; ++i) {
            if (i == 0 || !rng.bernoulli(0.6)) {
                const auto index = static_cast<uint64_t>(rng.uniformInt(
                    0, static_cast<int64_t>(footprint_lines) - 1));
                addr = index * line;
            }
            // Any byte of the current line: a same-line run.
            addrs.push_back((addr & ~(line - 1)) +
                            static_cast<uint64_t>(rng.uniformInt(
                                0, static_cast<int64_t>(line) - 1)));
            writes.push_back(rng.bernoulli(0.3) ? 1 : 0);
        }

        // The walks' address spaces: per core, code above 2^39.
        const uint64_t base = (static_cast<uint64_t>(core) << 40) +
                              (fetch ? 1ULL << 39 : 0);
        if (fetch) {
            const InstrBatchCounts got =
                hierarchy.instrFetchBatch(core, addrs.data(), count);
            InstrBatchCounts want;
            for (const uint64_t a : addrs)
                reference.fetch(core, a + base, want);
            EXPECT_EQ(got.l1Miss, want.l1Miss);
            EXPECT_EQ(got.l2Miss, want.l2Miss);
        } else {
            const DataBatchCounts got = hierarchy.dataAccessBatch(
                core, addrs.data(), writes.data(), count);
            DataBatchCounts want;
            for (uint32_t i = 0; i < count; ++i)
                reference.data(core, addrs[i] + base, writes[i] != 0,
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
            fetch ? hierarchy.l1i(core) : hierarchy.l1d(core);
        const ReferenceCache &ref_l1 =
            fetch ? reference.l1i[c] : reference.l1d[c];
        // Every line the batch touched, and where its writebacks
        // went in the lower levels.
        const std::set<uint64_t> touched(addrs.begin(), addrs.end());
        for (const uint64_t a : touched) {
            const uint64_t g = a + base;
            ASSERT_EQ(l1.contains(g), ref_l1.contains(g)) << a;
            for (const uint64_t probe : {g, g ^ 0x1000})
                ASSERT_EQ(hierarchy.l2(params.pmdOfCore(core))
                              .contains(probe),
                          reference.l2[pmd].contains(probe))
                    << a;
            for (const uint64_t probe : {g, g ^ 0x2000})
                ASSERT_EQ(hierarchy.l3().contains(probe),
                          reference.l3[0].contains(probe))
                    << a;
        }

        for (CoreId k = 0; k < params.numCores; ++k) {
            const auto i = ReferenceHierarchy::index(k);
            expectSameStats(hierarchy.l1i(k).stats(),
                            reference.l1i[i].stats(), "l1i");
            expectSameStats(hierarchy.l1d(k).stats(),
                            reference.l1d[i].stats(), "l1d");
            EXPECT_EQ(hierarchy.l1i(k).validLines(),
                      reference.l1i[i].validLines());
            EXPECT_EQ(hierarchy.l1d(k).validLines(),
                      reference.l1d[i].validLines());
        }
        for (PmdId p = 0; p < params.numPmds; ++p) {
            const auto i = ReferenceHierarchy::index(p);
            expectSameStats(hierarchy.l2(p).stats(),
                            reference.l2[i].stats(), "l2");
            EXPECT_EQ(hierarchy.l2(p).validLines(),
                      reference.l2[i].validLines());
        }
        expectSameStats(hierarchy.l3().stats(), reference.l3[0].stats(),
                        "l3");
        EXPECT_EQ(hierarchy.l3().validLines(),
                  reference.l3[0].validLines());
        if (testing::Test::HasFailure())
            return;
    }
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
    XGene2Params params;
    params.l1iKb = 2;
    params.l1dKb = 2;
    params.l2Kb = 8;
    params.l3Kb = 32;
    runEquivalence(params, 1024, 12, 600);
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
