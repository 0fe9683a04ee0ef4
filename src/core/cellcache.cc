#include "cellcache.hh"

namespace vmargin
{

namespace
{

/**
 * Binding header for every cache file. The cache deliberately binds
 * to nothing experiment-specific — one file serves many sweeps, and
 * per-entry configuration hashes do the rejection the journal's
 * header does per file.
 */
constexpr const char *kCacheHeader = "vmargin-cellcache";

} // namespace

CellResultCache::CellResultCache(std::string path,
                                 LedgerWriteOptions options)
    : ledger_(std::move(path), "cellcache", options)
{
}

void
CellResultCache::open(util::ThreadPool *pool)
{
    ledger_.open(kCacheHeader,
                 "is not a vmargin cell cache (header mismatch)", {},
                 pool);
}

const CellMeasurement *
CellResultCache::find(Seed config_hash, const ChipRef &chip,
                      const std::string &workload_id,
                      CoreId core) const
{
    if (const CellMeasurement *hit =
            ledger_.find(config_hash, chip, workload_id, core))
        return hit;
    if (ledger_.fileVersion() == 1)
        return ledger_.find(config_hash, ChipRef{}, workload_id,
                            core);
    return nullptr;
}

void
CellResultCache::put(Seed config_hash, const CellMeasurement &cell)
{
    ledger_.append(config_hash, cell);
}

void
CellResultCache::flush()
{
    ledger_.flush();
}

size_t
CellResultCache::size() const
{
    return ledger_.size();
}

} // namespace vmargin
