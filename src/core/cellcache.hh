/**
 * @file
 * Persistent cell-result cache.
 *
 * Full V/F characterization is a multi-day wall-clock problem (the
 * follow-up framework paper, arXiv:2106.09975), and benches and
 * repeated sweeps keep re-measuring cells whose outcome is already
 * known: every (workload, core) cell is a pure function of its
 * experiment coordinates and the measurement-shaping configuration.
 * The cache persists finished cells — the same RunLedger record
 * stream as the write-ahead journal — keyed by (config hash,
 * workload, core), where the config hash covers every knob that
 * shapes a cell's measurement (cellConfigHash). Unlike the journal,
 * which binds one file to one exact sweep via its header, one cache
 * file serves many sweeps: cells recorded under a *different*
 * configuration hash are simply not found (mirroring the journal's
 * config-mismatch refusal, but per entry instead of per file).
 */

#ifndef VMARGIN_CORE_CELLCACHE_HH
#define VMARGIN_CORE_CELLCACHE_HH

#include <string>

#include "ledger.hh"

namespace vmargin
{

/** Append-only, mutex-guarded (config, workload, core) -> cell map
 *  persisted next to the journal. A thin view over a RunLedger. */
class CellResultCache
{
  public:
    /** @param options group-commit policy (default: flush every
     *  put, the historical contract). */
    explicit CellResultCache(std::string path,
                             LedgerWriteOptions options = {});

    /**
     * Load existing entries. A missing file is an empty cache; a
     * file that is not a vmargin ledger, or one written by a
     * different ledger version, is refused (fatal — the path points
     * at something else). A truncated trailing entry from a killed
     * process is discarded. Not thread-safe; open before workers
     * start.
     */
    void open();

    /**
     * Cached measurement for @p chip's cell under @p config_hash, or
     * nullptr — entries recorded under any other configuration hash
     * are rejected. On a legacy (version-1) cache file the entries
     * carry no chip and were loaded under the implicit default chip
     * key — but cellConfigHash() mixes the chip identity, so any v1
     * entry matching @p config_hash was necessarily recorded for the
     * chip mixed into that hash; the lookup falls back to the
     * implicit key and the hit is sound. Only cells loaded by
     * open() are served, not those put since; the pointer stays
     * valid across put().
     */
    const CellMeasurement *find(Seed config_hash,
                                const ChipRef &chip,
                                const std::string &workload_id,
                                CoreId core) const;

    /**
     * Append a finished cell under @p config_hash; the group-commit
     * policy decides when the bytes are flushed (the default flushes
     * per put). Safe to call concurrently from executor workers. A
     * duplicate key (already cached) is ignored — first write wins,
     * matching the journal's merge-on-resume rule.
     */
    void put(Seed config_hash, const CellMeasurement &cell);

    /** Drain any batched puts to the OS (durability barrier). */
    void flush();

    /** Number of cached cells across all configuration hashes. */
    size_t size() const;

    const std::string &path() const { return ledger_.path(); }

  private:
    RunLedger ledger_;
};

} // namespace vmargin

#endif // VMARGIN_CORE_CELLCACHE_HH
