/**
 * @file
 * Unit tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include "sim/cache.hh"

namespace vmargin::sim
{
namespace
{

Cache
smallCache()
{
    // 4 KiB, 2-way, 64 B lines -> 32 sets.
    return Cache("test", 4, 2, 64, Protection::Ecc);
}

TEST(Cache, Geometry)
{
    const Cache cache = smallCache();
    EXPECT_EQ(cache.numSets(), 32u);
    EXPECT_EQ(cache.associativity(), 2);
    EXPECT_EQ(cache.lineBytes(), 64);
    EXPECT_EQ(cache.protection(), Protection::Ecc);
}

TEST(Cache, ColdMissThenHit)
{
    Cache cache = smallCache();
    EXPECT_FALSE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1004, false).hit) << "same line";
    EXPECT_FALSE(cache.access(0x1040, false).hit) << "next line";
}

TEST(Cache, StatsAccounting)
{
    Cache cache = smallCache();
    cache.access(0x0, false);
    cache.access(0x0, true);
    cache.access(0x40, false);
    const CacheStats &s = cache.stats();
    EXPECT_EQ(s.accesses, 3u);
    EXPECT_EQ(s.reads, 2u);
    EXPECT_EQ(s.writes, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.fills, 2u);
    EXPECT_DOUBLE_EQ(s.missRatio(), 2.0 / 3.0);
}

TEST(Cache, LruEviction)
{
    Cache cache = smallCache(); // 2 ways
    // Three lines mapping to the same set (stride = sets * line).
    const uint64_t stride = 32 * 64;
    cache.access(0 * stride, false);          // A
    cache.access(1 * stride, false);          // B
    EXPECT_TRUE(cache.access(0, false).hit);  // touch A -> B is LRU
    cache.access(2 * stride, false);          // C evicts B
    EXPECT_TRUE(cache.contains(0 * stride));
    EXPECT_FALSE(cache.contains(1 * stride));
    EXPECT_TRUE(cache.contains(2 * stride));
}

TEST(Cache, DirtyEvictionWritesBack)
{
    Cache cache = smallCache();
    const uint64_t stride = 32 * 64;
    cache.access(0 * stride, true); // dirty A
    cache.access(1 * stride, false);
    const AccessResult r = cache.access(2 * stride, false);
    EXPECT_TRUE(r.evictedDirty) << "A was dirty and LRU";
    EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionSilent)
{
    Cache cache = smallCache();
    const uint64_t stride = 32 * 64;
    cache.access(0 * stride, false);
    cache.access(1 * stride, false);
    const AccessResult r = cache.access(2 * stride, false);
    EXPECT_FALSE(r.evictedDirty);
    EXPECT_EQ(cache.stats().writebacks, 0u);
}

TEST(Cache, WriteHitMarksDirty)
{
    Cache cache = smallCache();
    const uint64_t stride = 32 * 64;
    cache.access(0 * stride, false); // clean fill
    cache.access(0 * stride, true);  // dirty via write hit
    cache.access(1 * stride, false);
    const AccessResult r = cache.access(2 * stride, false);
    EXPECT_TRUE(r.evictedDirty);
}

TEST(Cache, InvalidateAllDropsLinesKeepsStats)
{
    Cache cache = smallCache();
    cache.access(0x0, false);
    cache.access(0x40, false);
    EXPECT_EQ(cache.validLines(), 2u);
    cache.invalidateAll();
    EXPECT_EQ(cache.validLines(), 0u);
    EXPECT_EQ(cache.stats().accesses, 2u);
    EXPECT_FALSE(cache.access(0x0, false).hit);
}

TEST(Cache, ResetStats)
{
    Cache cache = smallCache();
    cache.access(0x0, false);
    cache.resetStats();
    EXPECT_EQ(cache.stats().accesses, 0u);
    EXPECT_TRUE(cache.access(0x0, false).hit)
        << "contents must survive a stats reset";
}

TEST(Cache, ContainsIsSideEffectFree)
{
    Cache cache = smallCache();
    cache.access(0x0, false);
    const uint64_t accesses = cache.stats().accesses;
    EXPECT_TRUE(cache.contains(0x0));
    EXPECT_FALSE(cache.contains(0x40));
    EXPECT_EQ(cache.stats().accesses, accesses);
}

TEST(Cache, CapacityBehaviour)
{
    // Touch exactly capacity worth of distinct lines: all must fit.
    Cache cache = smallCache(); // 64 lines
    for (uint64_t i = 0; i < 64; ++i)
        cache.access(i * 64, false);
    EXPECT_EQ(cache.validLines(), 64u);
    EXPECT_EQ(cache.stats().misses, 64u);
    // Second pass hits everywhere.
    for (uint64_t i = 0; i < 64; ++i)
        EXPECT_TRUE(cache.access(i * 64, false).hit);
}

TEST(Cache, WorkingSetLargerThanCapacityThrashes)
{
    Cache cache = smallCache();
    for (int pass = 0; pass < 2; ++pass)
        for (uint64_t i = 0; i < 128; ++i)
            cache.access(i * 64, false);
    // Sequential sweep over 2x capacity with LRU: every access
    // misses on the second pass too.
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(Cache, DeathOnBadGeometry)
{
    EXPECT_DEATH(Cache("bad", 0, 2, 64, Protection::Ecc),
                 "geometry");
    EXPECT_DEATH(Cache("bad", 4, 2, 48, Protection::Ecc),
                 "power of two");
    EXPECT_DEATH(Cache("bad", 4, 3, 64, Protection::Ecc),
                 "divisible");
}

TEST(Cache, RefusesAssociativityPastTheFillCount)
{
    // 1 MiB / 64 B = 16384 lines: 64 sets of 256 ways, one more way
    // than a set's fill count holds.
    EXPECT_EXIT(Cache("wide", 1024, Cache::kMaxAssoc + 1, 64,
                      Protection::Ecc),
                testing::ExitedWithCode(1), "associativity 256");
    const Cache widest("widest", 1020, Cache::kMaxAssoc, 64,
                       Protection::Ecc);
    EXPECT_EQ(widest.numSets(), 64u);
}

} // namespace
} // namespace vmargin::sim
