/**
 * @file
 * The X-Gene 2 cache topology (Figure 1): per-core parity-protected
 * L1I/L1D, one ECC L2 per PMD (shared by its two cores), and a
 * shared ECC L3 in the PCP/SoC domain.
 */

#ifndef VMARGIN_SIM_CACHE_HIERARCHY_HH
#define VMARGIN_SIM_CACHE_HIERARCHY_HH

#include <memory>
#include <vector>

#include "cache.hh"
#include "param.hh"

namespace vmargin::sim
{

/** Summed outcome of one batched data walk (dataAccessBatch). */
struct DataBatchCounts
{
    uint64_t l1Miss = 0;
    uint64_t writebacksFromL1 = 0;
    uint64_t l2Miss = 0;
    uint64_t writebacksFromL2 = 0;
    uint64_t l3Miss = 0;
};

/** Summed outcome of one batched fetch walk (instrFetchBatch). */
struct InstrBatchCounts
{
    uint64_t l1Miss = 0;
    uint64_t l2Miss = 0;
};

/** All caches of one chip, wired per the X-Gene 2 topology. */
class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const XGene2Params &params);

    /**
     * Walk @p count data accesses by @p core in one tight loop and
     * return the summed per-level miss/writeback counts. Each access
     * walks L1D -> L2 -> L3 and allocates on the way back; a dirty
     * L1 (L2) victim is written into L2 (L3) before the demand
     * access. An access to the same L1 line as the access just
     * before it is served from the slot that access hit or filled
     * (Cache::repeatHit): it is an L1 hit by construction, and the
     * L1 line, statistics and every other line end exactly as a
     * full walk would leave them. This is the hot path of every
     * characterization run.
     */
    DataBatchCounts dataAccessBatch(CoreId core,
                                    const uint64_t *addrs,
                                    const uint8_t *is_write,
                                    uint32_t count);

    /** Batched instruction fetch by @p core (L1I -> L2 -> L3, code
     *  and data in disjoint regions); same contract as
     *  dataAccessBatch(). */
    InstrBatchCounts instrFetchBatch(CoreId core,
                                     const uint64_t *addrs,
                                     uint32_t count);

    Cache &l1i(CoreId core);
    Cache &l1d(CoreId core);
    Cache &l2(PmdId pmd);
    Cache &l3() { return *l3_; }

    const Cache &l1i(CoreId core) const;
    const Cache &l1d(CoreId core) const;
    const Cache &l2(PmdId pmd) const;
    const Cache &l3() const { return *l3_; }

    /** Invalidate every cache (power cycle). */
    void invalidateAll();

    /** Zero the statistics of every cache. */
    void resetStats();

    const XGene2Params &params() const { return params_; }

  private:
    void checkCore(CoreId core) const;

    XGene2Params params_;
    std::vector<std::unique_ptr<Cache>> l1i_;
    std::vector<std::unique_ptr<Cache>> l1d_;
    std::vector<std::unique_ptr<Cache>> l2_;
    std::unique_ptr<Cache> l3_;
};

} // namespace vmargin::sim

#endif // VMARGIN_SIM_CACHE_HIERARCHY_HH
