/**
 * @file
 * LedgerView: the single-pass aggregator every analysis consumer
 * derives its view through — region analyses, severity by voltage,
 * the characterization report — from a stream of run records.
 */

#ifndef VMARGIN_CORE_LEDGER_VIEW_HH
#define VMARGIN_CORE_LEDGER_VIEW_HH

#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ledger.hh"
#include "severity.hh"

namespace vmargin
{

/** Warn when @p analysis of (@p workload_id, @p core) is censored:
 *  even the sweep's highest voltage was abnormal. */
void warnIfCensored(std::string_view workload_id, CoreId core,
                    const RegionAnalysis &analysis);

/**
 * Single-pass aggregator deriving every analysis view from a run
 * stream. Stream records in with add(); the per-cell region
 * analyses (regions, severity by voltage, Vmin, crash ceilings) are
 * computed once, lazily, from one SeverityTally per (cell, voltage)
 * — all that S_v and the regions read of a run — so the view keeps
 * no run's effects of its own. `regions.cc`
 * and the report/CSV rebuild path both read severity from here
 * instead of recomputing it per stage. Cells keep first-seen
 * (canonical stream) order, so a view fed in canonical cell order
 * reproduces the executor's report cell order exactly.
 */
class LedgerView
{
  public:
    explicit LedgerView(SeverityWeights weights = {});

    /** Stream one run record into the view. */
    void add(const RunRecord &record);

    /** Stream a batch of records. A run of records of one cell,
     *  and within it of one voltage, finds its group once. */
    void addAll(std::span<const RunRecord> records);

    /**
     * Region analysis of one cell, or nullptr when the cell has no
     * records. Computed on first access, single pass over the
     * cell's per-voltage tallies; later add() calls invalidate and
     * recompute.
     */
    const RegionAnalysis *analysis(const std::string &workload_id,
                                   CoreId core) const;

    /**
     * Derive every not-yet-analyzed cell's region analysis across
     * @p workers threads (0 = hardware concurrency, <= 1 or fewer
     * than two pending cells = inline serial). Per-cell derivation
     * is independent — each task writes only its own group's
     * memoized analysis — and results are read back in canonical
     * first-seen order, so the derived views are identical for any
     * worker count. analysis()/cellResults() after deriveAll() are
     * pure reads. Derives silently: its caller warns of censored
     * cells (warnIfCensored) in an order it owns, while analysis()
     * and cellResults() warn as they derive a cell themselves.
     */
    void deriveAll(int workers = 0) const;

    /** All cells' results in first-seen order. */
    std::vector<CellResult> cellResults() const &;

    /** The same, moving each cell's id and analysis out of the view,
     *  which is left empty. */
    std::vector<CellResult> cellResults() &&;

  private:
    /** One voltage level of a cell and the tally of its runs. */
    struct VoltageTally
    {
        MilliVolt voltage = 0;
        SeverityTally tally;
    };

    struct Group
    {
        std::string workloadId;
        CoreId core = 0;
        /** The cell's runs tallied by voltage, highest voltage first
         *  (the order a sweep visits the levels) — the accumulation
         *  the whole analysis derives from. */
        std::vector<VoltageTally> byVoltage;
        mutable RegionAnalysis analysis;
        mutable bool analyzed = false;
    };

    /** Orders index_ keys against (workload view, core) probes, so
     *  a lookup copies no workload id. */
    struct KeyLess
    {
        using is_transparent = void;

        template <typename A, typename B>
        bool
        operator()(const A &a, const B &b) const
        {
            return std::pair<std::string_view, CoreId>(a.first,
                                                       a.second) <
                   std::pair<std::string_view, CoreId>(b.first,
                                                       b.second);
        }
    };

    const Group *group(std::string_view workload_id,
                       CoreId core) const;
    /** The group of (@p workload_id, @p core), created at the end
     *  of the first-seen order when new. */
    Group &groupFor(const std::string &workload_id, CoreId core);
    void analyze(const Group &group) const;
    /** analyze() @p group unless derived, warning when censored. */
    void derive(const Group &group) const;

    RunWeightTable weights_;
    std::vector<Group> groups_;
    std::map<std::pair<std::string, CoreId>, size_t, KeyLess> index_;
};

} // namespace vmargin

#endif // VMARGIN_CORE_LEDGER_VIEW_HH
