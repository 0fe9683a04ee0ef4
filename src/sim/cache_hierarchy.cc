#include "cache_hierarchy.hh"

#include <algorithm>

#include "util/logging.hh"

namespace vmargin::sim
{

CacheHierarchy::CacheHierarchy(const XGene2Params &params)
    : params_(params)
{
    params_.validate();
    for (CoreId c = 0; c < params_.numCores; ++c) {
        const std::string core_name = "core" + std::to_string(c);
        l1i_.push_back(std::make_unique<Cache>(
            core_name + ".l1i", params_.l1iKb, params_.l1iAssoc,
            params_.cacheLineBytes, Protection::Parity));
        l1d_.push_back(std::make_unique<Cache>(
            core_name + ".l1d", params_.l1dKb, params_.l1dAssoc,
            params_.cacheLineBytes, Protection::Parity));
    }
    for (PmdId p = 0; p < params_.numPmds; ++p) {
        l2_.push_back(std::make_unique<Cache>(
            "pmd" + std::to_string(p) + ".l2", params_.l2Kb,
            params_.l2Assoc, params_.cacheLineBytes, Protection::Ecc));
    }
    l3_ = std::make_unique<Cache>("soc.l3", params_.l3Kb,
                                  params_.l3Assoc,
                                  params_.cacheLineBytes,
                                  Protection::Ecc);
}

void
CacheHierarchy::checkCore(CoreId core) const
{
    if (core < 0 || core >= params_.numCores)
        util::panicf("CacheHierarchy: core ", core, " out of range");
}

Cache &
CacheHierarchy::l1i(CoreId core)
{
    checkCore(core);
    return *l1i_[static_cast<size_t>(core)];
}

Cache &
CacheHierarchy::l1d(CoreId core)
{
    checkCore(core);
    return *l1d_[static_cast<size_t>(core)];
}

Cache &
CacheHierarchy::l2(PmdId pmd)
{
    if (pmd < 0 || pmd >= params_.numPmds)
        util::panicf("CacheHierarchy: PMD ", pmd, " out of range");
    return *l2_[static_cast<size_t>(pmd)];
}

const Cache &
CacheHierarchy::l1i(CoreId core) const
{
    checkCore(core);
    return *l1i_[static_cast<size_t>(core)];
}

const Cache &
CacheHierarchy::l1d(CoreId core) const
{
    checkCore(core);
    return *l1d_[static_cast<size_t>(core)];
}

const Cache &
CacheHierarchy::l2(PmdId pmd) const
{
    if (pmd < 0 || pmd >= params_.numPmds)
        util::panicf("CacheHierarchy: PMD ", pmd, " out of range");
    return *l2_[static_cast<size_t>(pmd)];
}

namespace
{

/** Accesses per stack chunk of a batch walk's run-head pass. */
constexpr uint32_t kRunChunk = 256;

/**
 * Walk @p count accesses through @p l1 by same-line runs: a run is a
 * maximal stretch of consecutive accesses to one L1 line, and its
 * head is its first access. Only heads call Cache::access();
 * Cache::repeatRun() applies each run's tail in one step, which is
 * exact because nothing touches @p l1 between a head and its tail.
 * @p on_miss(global, write, result) walks the lower levels for each
 * head that misses @p l1, in batch order. @p is_write is read only
 * when kWrites is true (the fetch walk passes null).
 *
 * The batch is split into fixed stack chunks. Per chunk, a
 * branch-free pass records each head's index and the chunk's writes
 * before it; then a second loop visits only the heads. A run that
 * crosses a chunk edge continues in the slot of the previous chunk's
 * last head.
 */
template <bool kWrites, typename OnMiss>
inline void
walkRuns(Cache &l1, const uint64_t *__restrict addrs,
         const uint8_t *__restrict is_write, uint32_t count,
         uint64_t base, OnMiss &&on_miss)
{
    // Not zeroed: each chunk's pass writes entries [0, heads] before
    // the head loop reads them.
    uint32_t head[kRunChunk + 1];
    uint32_t writes_before[kRunChunk + 1];
    // The complement of the first line differs from it, so the
    // batch's first access is always a head.
    uint64_t last_line = count ? ~l1.tagOf(addrs[0] + base) : 0;
    size_t last_slot = 0;
    for (uint32_t start = 0; start < count; start += kRunChunk) {
        const uint32_t n = std::min(count - start, kRunChunk);
        const uint64_t *chunk = addrs + start;
        const uint8_t *chunk_writes = kWrites ? is_write + start
                                              : nullptr;

        uint32_t heads = 0;
        uint32_t writes = 0;
        for (uint32_t i = 0; i < n; ++i) {
            const uint64_t line = l1.tagOf(chunk[i] + base);
            head[heads] = i;
            writes_before[heads] = writes;
            heads += line != last_line ? 1 : 0;
            if constexpr (kWrites)
                writes += chunk_writes[i] != 0 ? 1 : 0;
            last_line = line;
        }
        head[heads] = n;
        writes_before[heads] = writes;

        if (head[0] != 0) // the tail of the previous chunk's last run
            l1.repeatRun(last_slot, head[0], writes_before[0]);
        for (uint32_t k = 0; k < heads; ++k) {
            const uint32_t i = head[k];
            const uint64_t global = chunk[i] + base;
            const bool write = kWrites && chunk_writes[i] != 0;
            const AccessResult l1r = l1.access(global, write);
            last_slot = l1r.slot;
            l1.repeatRun(l1r.slot, head[k + 1] - i - 1,
                         writes_before[k + 1] - writes_before[k] -
                             (write ? 1 : 0));
            if (!l1r.hit)
                on_miss(global, write, l1r);
        }
    }
}

} // namespace

DataBatchCounts
CacheHierarchy::dataAccessBatch(CoreId core,
                                const uint64_t *__restrict addrs,
                                const uint8_t *__restrict is_write,
                                uint32_t count)
{
    checkCore(core);
    // Per-core address spaces are disjoint so concurrent workloads
    // on different cores don't alias in the shared levels; the PMD
    // pair still shares L2 capacity, the chip shares L3.
    const uint64_t base = static_cast<uint64_t>(core) << 40;
    Cache &l1 = *l1d_[static_cast<size_t>(core)];
    Cache &l2c =
        *l2_[static_cast<size_t>(params_.pmdOfCore(core))];
    Cache &l3c = *l3_;

    DataBatchCounts out;
    walkRuns<true>(
        l1, addrs, is_write, count, base,
        [&](uint64_t global, bool write, const AccessResult &l1r) {
            ++out.l1Miss;
            // The L1 victim writeback and the demand fill both touch
            // L2; writebacks are recorded as writes.
            if (l1r.evictedDirty) {
                ++out.writebacksFromL1;
                l2c.access(global ^ 0x1000, true);
            }
            const AccessResult l2r = l2c.access(global, write);
            if (l2r.hit)
                return;
            ++out.l2Miss;
            if (l2r.evictedDirty) {
                ++out.writebacksFromL2;
                l3c.access(global ^ 0x2000, true);
            }
            out.l3Miss += l3c.access(global, write).hit ? 0 : 1;
        });
    return out;
}

InstrBatchCounts
CacheHierarchy::instrFetchBatch(CoreId core,
                                const uint64_t *__restrict addrs,
                                uint32_t count)
{
    checkCore(core);
    // Code and data live in disjoint regions of the core's space.
    const uint64_t base =
        (static_cast<uint64_t>(core) << 40) + (1ULL << 39);
    Cache &l1 = *l1i_[static_cast<size_t>(core)];
    Cache &l2c =
        *l2_[static_cast<size_t>(params_.pmdOfCore(core))];
    Cache &l3c = *l3_;

    InstrBatchCounts out;
    walkRuns<false>(l1, addrs, nullptr, count, base,
                    [&](uint64_t global, bool, const AccessResult &) {
                        ++out.l1Miss;
                        if (l2c.access(global, false).hit)
                            return;
                        ++out.l2Miss;
                        l3c.access(global, false);
                    });
    return out;
}

void
CacheHierarchy::invalidateAll()
{
    for (auto &cache : l1i_)
        cache->invalidateAll();
    for (auto &cache : l1d_)
        cache->invalidateAll();
    for (auto &cache : l2_)
        cache->invalidateAll();
    l3_->invalidateAll();
}

void
CacheHierarchy::resetStats()
{
    for (auto &cache : l1i_)
        cache->resetStats();
    for (auto &cache : l1d_)
        cache->resetStats();
    for (auto &cache : l2_)
        cache->resetStats();
    l3_->resetStats();
}

} // namespace vmargin::sim
