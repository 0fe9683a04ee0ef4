/**
 * @file
 * Table 2 reproduction: the simulated platform's architectural
 * parameters, checked against the paper's values, plus the Table 3
 * effect taxonomy and the Figure 1 topology invariants.
 */

#include <iostream>

#include "core/effects.hh"
#include "sim/chip.hh"
#include "util/table.hh"

using namespace vmargin;

int
main()
{
    util::printBanner(std::cout,
                      "Table 2: basic parameters of APM X-Gene 2");

    const sim::XGene2Params p;
    p.validate();

    util::TablePrinter table({"parameter", "configuration"});
    table.setAlignment({util::Align::Left, util::Align::Left});
    table.addRow({"ISA", "ARMv8 (AArch64, AArch32, Thumb)"});
    table.addRow({"Pipeline", "64-bit OoO (" +
                                  std::to_string(p.issueWidth) +
                                  "-issue)"});
    table.addRow({"CPU", std::to_string(p.numCores) + " cores"});
    table.addRow({"Core clock",
                  std::to_string(p.maxFrequency) + " MHz"});
    table.addRow({"L1 Instr. cache",
                  std::to_string(p.l1iKb) +
                      "KB per core (Parity Protected)"});
    table.addRow({"L1 Data cache",
                  std::to_string(p.l1dKb) +
                      "KB per core (Parity Protected)"});
    table.addRow({"L2 cache", std::to_string(p.l2Kb) +
                                  "KB per PMD (ECC Protected)"});
    table.addRow({"L3 cache", std::to_string(p.l3Kb / 1024) +
                                  "MB (ECC Protected)"});
    table.addRow({"Technology",
                  std::to_string(p.technologyNm) + " nm"});
    table.addRow({"Max TDP",
                  std::to_string(static_cast<int>(p.maxTdpWatts)) +
                      " W"});
    table.print(std::cout);

    util::printBanner(std::cout, "Voltage/frequency domains "
                                 "(section 2.1)");
    std::cout << "PMD domain     : nominal "
              << p.nominalPmdVoltage << " mV, "
              << p.voltageStepSize
              << " mV regulation steps, shared by all "
              << p.numPmds << " PMDs\n"
              << "PCP/SoC domain : nominal "
              << p.nominalSocVoltage << " mV, independent\n"
              << "PMD frequency  : " << p.minFrequency << ".."
              << p.maxFrequency << " MHz in "
              << p.frequencyStep << " MHz steps, per PMD; clock "
              << "division at <= " << p.clockDivisionThreshold
              << " MHz\n";

    util::printBanner(std::cout, "Figure 1 topology invariants");
    sim::Chip chip(p, sim::ChipCorner::TTT, 1);
    bool ok = true;
    for (CoreId c = 0; c < p.numCores; ++c) {
        ok = ok && chip.caches().l1d(c).protection() ==
                       sim::Protection::Parity;
        ok = ok && chip.core(c).id() == c;
    }
    for (PmdId pmd = 0; pmd < p.numPmds; ++pmd) {
        ok = ok && chip.caches().l2(pmd).protection() ==
                       sim::Protection::Ecc;
        ok = ok && chip.pmd(pmd).coreIds().size() == 2;
    }
    ok = ok &&
         chip.caches().l3().protection() == sim::Protection::Ecc;
    std::cout << (ok ? "all topology invariants hold\n"
                     : "TOPOLOGY MISMATCH\n");

    util::printBanner(std::cout,
                      "Table 3: effects classification");
    util::TablePrinter effects({"effect", "description"});
    effects.setAlignment({util::Align::Left, util::Align::Left});
    for (Effect e : kAllEffects)
        effects.addRow({std::string(effectName(e)), effectDescription(e)});
    effects.print(std::cout);

    return ok ? 0 : 1;
}
