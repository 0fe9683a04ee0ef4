/**
 * @file
 * Section 6 ablation: quantify the paper's three hardware design
 * recommendations on the simulated platform.
 *
 *  (a) Stronger error protection -> corrected errors appear first
 *      (Itanium-style), enabling ECC-guided voltage speculation.
 *  (b) Adaptive clocking / hardware detectors -> the first timing
 *      failure moves to lower voltage, deepening the safe region.
 *  (c) Per-PMD voltage domains -> each PMD runs at its own worst
 *      cell's Vmin instead of the chip-wide worst.
 */

#include <iostream>

#include "common.hh"
#include "core/tradeoff.hh"
#include "util/strings.hh"
#include "util/table.hh"

using namespace vmargin;

namespace
{

/** Characterize TTT#1 with the given design variants. */
bench::ChipReport
characterizeVariant(const sim::DesignEnhancements &enhancements)
{
    bench::ChipReport out;
    out.platform = std::make_unique<sim::Platform>(
        sim::XGene2Params{}, sim::ChipCorner::TTT, 1, enhancements);
    CharacterizationFramework framework(out.platform.get());
    FrameworkConfig config;
    config.workloads = wl::headlineSuite();
    config.cores = {0, 1, 2, 3, 4, 5, 6, 7};
    config.campaigns = 8;
    config.maxEpochs = 15;
    config.startVoltage = 930;
    config.endVoltage = 820;
    out.report = framework.characterize(config);
    return out;
}

double
averageVmin(const CharacterizationReport &report)
{
    double sum = 0.0;
    int count = 0;
    for (const auto &cell : report.cells) {
        sum += cell.analysis.vmin;
        ++count;
    }
    return sum / count;
}

/** Highest voltage level whose runs show CE but nothing worse,
 *  across all cells (the ECC-as-proxy window). */
int
ceFirstCells(const CharacterizationReport &report)
{
    int cells = 0;
    // A swept report holds one run block per cell, in cell order.
    for (size_t i = 0; i < report.cells.size(); ++i) {
        // Does the first abnormal level of this cell contain only
        // CE effects?
        MilliVolt first = report.cells[i].analysis.highestAbnormalVoltage;
        if (!first)
            continue;
        bool ce_only = true;
        for (const auto &run : report.runBlocks[i]) {
            if (run.key.voltage != first)
                continue;
            const EffectSet &set = run.effects;
            if (set.normal())
                continue;
            ce_only = ce_only && set.has(Effect::CE) &&
                      !set.has(Effect::SDC) &&
                      !set.has(Effect::AC) && !set.has(Effect::SC);
        }
        cells += ce_only ? 1 : 0;
    }
    return cells;
}

} // namespace

int
main()
{
    util::printBanner(std::cout,
                      "Section 6 ablation: design enhancements "
                      "(TTT, 10 benchmarks x 8 cores)");

    std::cerr << "characterizing baseline...\n";
    const auto baseline = characterizeVariant({});

    sim::DesignEnhancements ecc;
    ecc.strongerEcc = true;
    std::cerr << "characterizing stronger-ECC variant...\n";
    const auto with_ecc = characterizeVariant(ecc);

    sim::DesignEnhancements adaptive;
    adaptive.adaptiveClocking = true;
    std::cerr << "characterizing adaptive-clocking variant...\n";
    const auto with_adaptive = characterizeVariant(adaptive);

    util::TablePrinter table({"variant", "avg Vmin (mV)",
                              "CE-first cells (of 80)",
                              "avg savings @ Vmin"});
    const auto row = [&](const std::string &name,
                         const CharacterizationReport &report) {
        const double avg = averageVmin(report);
        table.addRow(
            {name, util::formatDouble(avg, 1),
             std::to_string(ceFirstCells(report)),
             util::formatDouble(
                 power::savingsPercent(power::relativeDynamicPower(
                     static_cast<MilliVolt>(avg + 0.5), 980, 1.0)),
                 1) +
                 "%"});
    };
    row("baseline X-Gene 2", baseline.report);
    row("stronger ECC (DECTED)", with_ecc.report);
    row("adaptive clocking", with_adaptive.report);
    table.print(std::cout);

    std::cout
        << "\nexpected shapes (section 6):\n"
        << "  - stronger ECC turns the first abnormal level into "
           "CE-only behaviour\n    (ECC-guided speculation becomes "
           "possible, like on the Itanium), and buys a small\n"
           "    Vmin reduction;\n"
        << "  - adaptive clocking moves every timing onset down, "
           "deepening the safe region\n    by roughly its "
        << sim::DesignEnhancements{}.adaptiveClockingGainMv
        << " mV gain.\n";

    // (c) per-PMD voltage domains on the baseline chip.
    util::printBanner(std::cout,
                      "finer-grained voltage domains (baseline "
                      "silicon)");
    std::vector<Placement> placements;
    const auto suite = wl::headlineSuite();
    for (CoreId c = 0; c < 8; ++c)
        placements.push_back(
            Placement{suite[static_cast<size_t>(c)].id(), c});
    const TradeoffExplorer explorer(baseline.report, 760);
    const double single =
        explorer.singleDomainPowerRel(placements);
    const double per_pmd =
        explorer.perPmdDomainPowerRel(placements);
    std::cout << "single shared domain : "
              << util::formatDouble(100.0 * single, 1)
              << "% of nominal power ("
              << util::formatDouble(
                     power::savingsPercent(single), 1)
              << "% savings)\n"
              << "per-PMD domains      : "
              << util::formatDouble(100.0 * per_pmd, 1)
              << "% of nominal power ("
              << util::formatDouble(
                     power::savingsPercent(per_pmd), 1)
              << "% savings)\n"
              << "extra savings from finer domains: "
              << util::formatDouble(100.0 * (single - per_pmd), 1)
              << " percentage points (paper: \"more aggressive "
                 "voltage scaling would have been possible\")\n";
    return 0;
}
