/**
 * @file
 * Unit tests for the X-Gene 2 cache topology.
 */

#include <gtest/gtest.h>

#include "sim/cache_hierarchy.hh"

namespace vmargin::sim
{
namespace
{

/** One data access, as a one-element batch. */
DataBatchCounts
dataAccess(CacheHierarchy &h, CoreId core, uint64_t addr, bool write)
{
    const uint8_t is_write = write ? 1 : 0;
    return h.dataAccessBatch(core, &addr, &is_write, 1);
}

/** One instruction fetch, as a one-element batch. */
InstrBatchCounts
instrFetch(CacheHierarchy &h, CoreId core, uint64_t addr)
{
    return h.instrFetchBatch(core, &addr, 1);
}

TEST(Hierarchy, TopologyMatchesFigure1)
{
    CacheHierarchy h{XGene2Params{}};
    // Per-core parity L1s.
    for (CoreId c = 0; c < 8; ++c) {
        EXPECT_EQ(h.l1i(c).protection(), Protection::Parity);
        EXPECT_EQ(h.l1d(c).protection(), Protection::Parity);
        EXPECT_EQ(h.l1d(c).sizeKb(), 32);
    }
    // Per-PMD ECC L2, shared ECC L3.
    for (PmdId p = 0; p < 4; ++p) {
        EXPECT_EQ(h.l2(p).protection(), Protection::Ecc);
        EXPECT_EQ(h.l2(p).sizeKb(), 256);
    }
    EXPECT_EQ(h.l3().protection(), Protection::Ecc);
    EXPECT_EQ(h.l3().sizeKb(), 8192);
}

TEST(Hierarchy, MissWalksAllLevels)
{
    CacheHierarchy h{XGene2Params{}};
    const DataBatchCounts a = dataAccess(h, 0, 0x1000, false);
    EXPECT_EQ(a.l1Miss, 1u);
    EXPECT_EQ(a.l2Miss, 1u);
    EXPECT_EQ(a.l3Miss, 1u);
    // Second touch hits in L1: no lower-level traffic.
    const uint64_t l2_before = h.l2(0).stats().accesses;
    const DataBatchCounts b = dataAccess(h, 0, 0x1000, false);
    EXPECT_EQ(b.l1Miss, 0u);
    EXPECT_EQ(h.l2(0).stats().accesses, l2_before);
}

TEST(Hierarchy, PmdPairSharesL2)
{
    CacheHierarchy h{XGene2Params{}};
    dataAccess(h, 0, 0x2000, false);
    dataAccess(h, 1, 0x3000, false);
    // Both cores of PMD 0 hit the same L2 instance.
    EXPECT_EQ(h.l2(0).stats().accesses, 2u);
    EXPECT_EQ(h.l2(1).stats().accesses, 0u);
    // Cores 2 and 3 use the next L2.
    dataAccess(h, 2, 0x2000, false);
    EXPECT_EQ(h.l2(1).stats().accesses, 1u);
}

TEST(Hierarchy, CoresDoNotAliasInSharedLevels)
{
    CacheHierarchy h{XGene2Params{}};
    dataAccess(h, 0, 0x4000, false);
    // Same program address from another core must still miss: the
    // model keeps per-core address spaces disjoint.
    EXPECT_EQ(dataAccess(h, 4, 0x4000, false).l3Miss, 1u);
}

TEST(Hierarchy, L1EvictionWritesBackIntoL2)
{
    XGene2Params params;
    CacheHierarchy h(params);
    // Fill one L1D set (8 ways) with dirty lines, then evict.
    const uint64_t set_stride =
        static_cast<uint64_t>(params.l1dKb) * 1024 /
        static_cast<uint64_t>(params.l1dAssoc);
    for (int i = 0; i <= params.l1dAssoc; ++i)
        dataAccess(h, 0, static_cast<uint64_t>(i) * set_stride, true);
    EXPECT_GE(h.l1d(0).stats().writebacks, 1u);
}

TEST(Hierarchy, InstrFetchUsesInstructionSide)
{
    CacheHierarchy h{XGene2Params{}};
    EXPECT_EQ(instrFetch(h, 0, 0x100).l1Miss, 1u);
    EXPECT_EQ(h.l1i(0).stats().accesses, 1u);
    EXPECT_EQ(h.l1d(0).stats().accesses, 0u);
    EXPECT_EQ(instrFetch(h, 0, 0x104).l1Miss, 0u);
}

TEST(Hierarchy, CodeAndDataDisjoint)
{
    CacheHierarchy h{XGene2Params{}};
    dataAccess(h, 0, 0x100, false);
    // Same numeric address on the fetch path must not hit the data
    // line in shared levels.
    EXPECT_EQ(instrFetch(h, 0, 0x100).l2Miss, 1u);
    EXPECT_EQ(h.l3().stats().accesses, 2u);
    EXPECT_EQ(h.l3().stats().hits, 0u);
}

TEST(Hierarchy, SameLineRepeatsHitInL1)
{
    CacheHierarchy h{XGene2Params{}};
    // One cold line touched four times in a row (a write in the
    // middle): one walk, three L1 hits, and the line ends dirty.
    const uint64_t addrs[] = {0x1000, 0x1008, 0x1010, 0x103f};
    const uint8_t writes[] = {0, 0, 1, 0};
    const DataBatchCounts a = h.dataAccessBatch(0, addrs, writes, 4);
    EXPECT_EQ(a.l1Miss, 1u);
    const CacheStats s = h.l1d(0).stats();
    EXPECT_EQ(s.accesses, 4u);
    EXPECT_EQ(s.hits, 3u);
    EXPECT_EQ(s.writes, 1u);
    EXPECT_EQ(h.l2(0).stats().accesses, 1u);
    // Evict the line: its dirty bit must have stuck.
    XGene2Params params;
    const uint64_t set_stride =
        static_cast<uint64_t>(params.l1dKb) * 1024 /
        static_cast<uint64_t>(params.l1dAssoc);
    for (int i = 1; i <= params.l1dAssoc; ++i)
        dataAccess(h, 0, 0x1000 + static_cast<uint64_t>(i) * set_stride,
                   false);
    EXPECT_EQ(h.l1d(0).stats().writebacks, 1u);
}

TEST(Hierarchy, InvalidateAllColdStarts)
{
    CacheHierarchy h{XGene2Params{}};
    dataAccess(h, 3, 0x8000, false);
    h.invalidateAll();
    EXPECT_EQ(dataAccess(h, 3, 0x8000, false).l1Miss, 1u);
}

TEST(Hierarchy, ResetStatsZeroesEverything)
{
    CacheHierarchy h{XGene2Params{}};
    dataAccess(h, 0, 0x1, false);
    instrFetch(h, 5, 0x2);
    h.resetStats();
    EXPECT_EQ(h.l1d(0).stats().accesses, 0u);
    EXPECT_EQ(h.l1i(5).stats().accesses, 0u);
    EXPECT_EQ(h.l3().stats().accesses, 0u);
}

TEST(Hierarchy, DeathOnBadIds)
{
    CacheHierarchy h{XGene2Params{}};
    EXPECT_DEATH(dataAccess(h, 8, 0, false), "out of range");
    EXPECT_DEATH(h.l2(4), "out of range");
}

} // namespace
} // namespace vmargin::sim
