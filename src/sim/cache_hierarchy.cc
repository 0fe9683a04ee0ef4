#include "cache_hierarchy.hh"

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
    // The previous access's L1 line and slot; the complement of the
    // first line differs from it, so the first access walks.
    uint64_t last_line = count ? ~l1.tagOf(addrs[0] + base) : 0;
    size_t last_slot = 0;
    for (uint32_t i = 0; i < count; ++i) {
        const uint64_t global = addrs[i] + base;
        const bool write = is_write[i] != 0;
        const uint64_t line = l1.tagOf(global);
        if (line == last_line) {
            l1.repeatHit(last_slot, write);
            continue;
        }
        const AccessResult l1r = l1.access(global, write);
        last_line = line;
        last_slot = l1r.slot;
        if (l1r.hit)
            continue;
        ++out.l1Miss;
        // The L1 victim writeback and the demand fill both touch L2;
        // writebacks are recorded as writes.
        if (l1r.evictedDirty) {
            ++out.writebacksFromL1;
            l2c.access(global ^ 0x1000, true);
        }
        const AccessResult l2r = l2c.access(global, write);
        if (l2r.hit)
            continue;
        ++out.l2Miss;
        if (l2r.evictedDirty) {
            ++out.writebacksFromL2;
            l3c.access(global ^ 0x2000, true);
        }
        const AccessResult l3r = l3c.access(global, write);
        out.l3Miss += l3r.hit ? 0 : 1;
    }
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
    uint64_t last_line = count ? ~l1.tagOf(addrs[0] + base) : 0;
    size_t last_slot = 0;
    for (uint32_t i = 0; i < count; ++i) {
        const uint64_t global = addrs[i] + base;
        const uint64_t line = l1.tagOf(global);
        if (line == last_line) {
            l1.repeatHit(last_slot, false);
            continue;
        }
        const AccessResult l1r = l1.access(global, false);
        last_line = line;
        last_slot = l1r.slot;
        if (l1r.hit)
            continue;
        ++out.l1Miss;
        if (l2c.access(global, false).hit)
            continue;
        ++out.l2Miss;
        l3c.access(global, false);
    }
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
