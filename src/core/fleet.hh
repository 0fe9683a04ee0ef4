/**
 * @file
 * The fleet plane: characterization across a set of chips.
 *
 * The paper characterized three X-Gene 2 parts — a typical (TTT), a
 * fast (TFF) and a slow (TSS) corner — and its headline analysis is
 * the comparison *between* them: Vmin varies per part, so guardbands
 * set for the worst part waste margin on the others. This module
 * lifts the framework's single-chip assumption into the data model:
 * a FleetConfig names N chips (corner + serial) sharing one sweep
 * configuration, the FleetExecutor runs them through the same sweep
 * engine as the single-chip executor (executeSweep in
 * core/executor), and the FleetReport carries one
 * CharacterizationReport per chip plus the cross-chip analytics
 * (per-corner Vmin distribution, guardband recommendation,
 * fleet-wide energy-savings rollup).
 *
 * Determinism contract, extended: the fleet report is byte-identical
 * for any worker count AND any chip enumeration order — cells merge
 * per chip in canonical chip order (sorted by ChipRef::key()), and
 * the shared journal header hashes the canonical chip set, so a
 * shuffled --chip list resumes the same journal.
 */

#ifndef VMARGIN_CORE_FLEET_HH
#define VMARGIN_CORE_FLEET_HH

#include <string>
#include <vector>

#include "framework.hh"
#include "sim/platform.hh"

namespace vmargin
{

/**
 * Parse one chip spec "CORNER[:serial]" (e.g. "TFF", "TSS:3") into a
 * ChipRef; a bare corner gets serial 1. Fatal — naming the offending
 * value — on an unknown corner, a malformed serial, or serial 0
 * (reserved as the implicit/legacy sentinel).
 */
ChipRef parseChipSpec(const std::string &spec);

/**
 * Parse a repeated --chip option into a fleet. Fatal on an empty
 * list or a duplicate chip (same corner and serial), naming the
 * duplicate.
 */
std::vector<ChipRef> parseFleetSpec(
    const std::vector<std::string> &specs);

/** One sweep configuration applied to N chips. */
struct FleetConfig
{
    /** The parts under test, in any order (execution and reporting
     *  use canonicalChips()). */
    std::vector<ChipRef> chips;

    /** The sweep every chip runs: workloads, cores, voltage range,
     *  campaigns, journal/cache paths, workers. The journal and
     *  cache are *shared* across the fleet — the chip dimension in
     *  the ledger index keeps the cells apart. */
    FrameworkConfig framework;

    /** Fatal on an unusable configuration: no chips, duplicate
     *  chips, serial 0, or an invalid framework config. */
    void validate() const;

    /** The chips sorted by ChipRef::key() — the canonical order all
     *  execution planning and reporting uses, making the fleet
     *  report independent of the enumeration order. */
    std::vector<ChipRef> canonicalChips() const;
};

/** One chip's slice of the fleet result. */
struct FleetChipReport
{
    ChipRef chip;
    CharacterizationReport report;
};

/**
 * Vmin distribution of one process corner across the fleet's chips
 * and cells (censored cells — no effect observed down to the sweep
 * floor — are excluded from the statistics).
 */
struct CornerSummary
{
    sim::ChipCorner corner = sim::ChipCorner::TTT;
    int chips = 0;       ///< fleet chips fabricated at this corner
    size_t cells = 0;    ///< cells with an observed Vmin
    MilliVolt bestVmin = 0;  ///< lowest observed Vmin (most margin)
    MilliVolt worstVmin = 0; ///< highest observed Vmin (binding)
    double meanVmin = 0.0;

    /** Guardband recommendation for this corner: nominal minus the
     *  binding (worst) Vmin — the margin every part of this corner
     *  can safely give up. */
    MilliVolt guardbandMv = 0;

    /** Power-savings headline at the recommended guardband,
     *  V^2-scaled: (1 - (worstVmin/nominal)^2) * 100. */
    double savingsPercent = 0.0;
};

/** The fleet-wide result: per-chip reports + cross-chip analytics. */
struct FleetReport
{
    /** Per-chip reports in canonical chip order. */
    std::vector<FleetChipReport> chips;

    MilliVolt nominalMv = 980;
    MegaHertz frequency = 2400;

    /** False when the fleet-wide cell budget stopped the sweep
     *  early; resume by running again with the same journal. */
    bool complete = true;

    /** One chip's report; fatal when the chip is not in the fleet. */
    const CharacterizationReport &report(const ChipRef &chip) const;

    /** Per-corner Vmin distributions in kAllCorners order (corners
     *  with no fleet chip are omitted). */
    std::vector<CornerSummary> cornerSummaries() const;

    /**
     * Fleet-wide savings rollup: the savings at the single guardband
     * that is safe for *every* chip in the fleet (set by the
     * fleet-wide worst observed Vmin) — the paper's "one setting for
     * the whole rack" number. 0 when nothing was observed.
     */
    double fleetSavingsPercent() const;

    /**
     * The paper's three-chip comparison table as CSV: one row per
     * workload (first-seen order across canonical chips), one column
     * per chip, each cell the workload's best-core Vmin on that chip
     * (empty when the chip never measured the workload).
     */
    std::string comparisonCsv() const;

    /**
     * Deterministic full rendering: fleet header, each chip's
     * serializeReport() block in canonical order, the corner-summary
     * CSV, the comparison table and the fleet savings rollup, all
     * appended into one buffer reserved from the run count.
     * Byte-identical for any worker count and chip enumeration
     * order.
     */
    std::string serialize() const;
};

/**
 * Binding header for the fleet's shared journal: sweep knobs, the
 * canonical chip set and the template platform's fault plan. A
 * journal recorded under a different fleet (different chips, knobs
 * or faults) is refused; a reordered --chip list hashes identically.
 */
std::string fleetJournalHeaderFor(const FleetConfig &config,
                                  const sim::Platform &platform);

/**
 * One fleet characterization. The template platform contributes
 * everything that is *not* per-chip — platform parameters, design
 * enhancements, fault plan — and one prototype per fleet chip is
 * stamped out with Platform::freshReplica(corner, serial); the
 * prototypes, in canonical chip order, then go through
 * executeSweep() bound to the fleetJournalHeaderFor() header.
 */
class FleetExecutor
{
  public:
    /** @param tmpl template machine (not owned, never executed on) */
    explicit FleetExecutor(sim::Platform *tmpl);

    /** Run the fleet sweep described by @p config. */
    FleetReport run(const FleetConfig &config);

  private:
    sim::Platform *template_;
};

} // namespace vmargin

#endif // VMARGIN_CORE_FLEET_HH
