/**
 * @file
 * Component-directed self-tests (paper section 3.4): stress each
 * cache level, the ALU and the FPU separately and compare where
 * SDCs appear versus where the machine crashes. On the X-Gene 2 the
 * ALU/FPU tests fail (SDCs) at much higher voltages than the cache
 * tests crash — evidence that timing paths, not SRAM cells, limit
 * undervolting.
 *
 *   ./build/examples/selftest_stress --core 0
 */

#include <iostream>

#include "core/framework.hh"
#include "sim/platform.hh"
#include "util/cli.hh"
#include "util/table.hh"
#include "workloads/selftest.hh"

using namespace vmargin;

int
main(int argc, char **argv)
{
    util::CliParser cli("selftest_stress",
                        "component stress tests (section 3.4)");
    cli.addOption("chip", "TTT", "chip corner");
    cli.addOption("core", "0", "core under test");
    cli.addOption("campaigns", "6", "campaign repetitions");
    if (!cli.parse(argc, argv))
        return 1;

    const auto core = util::narrowInt<CoreId>(cli.intValue("core"), "--core");
    sim::Platform platform(sim::XGene2Params{},
                           sim::cornerFromName(cli.value("chip")),
                           1);
    CharacterizationFramework framework(&platform);

    FrameworkConfig config;
    config.workloads = wl::selfTestSuite();
    config.cores = {core};
    config.campaigns = util::narrowInt<int>(
        cli.intValue("campaigns"), "--campaigns");
    config.startVoltage = 950;
    config.endVoltage = 780; // cache arrays die far below the rest

    std::cout << "running cache fill/flip, ALU and FPU self-tests "
                 "on core "
              << core << " of " << platform.chip().name()
              << "...\n\n";
    const auto report = framework.characterize(config);

    util::TablePrinter table({"self-test", "first abnormal (mV)",
                              "crash (mV)", "unsafe width (mV)"});
    for (const auto &w : config.workloads) {
        const auto &analysis = report.cell(w.id(), core).analysis;
        table.addRow(
            {w.id(),
             std::to_string(analysis.highestAbnormalVoltage),
             std::to_string(analysis.highestCrashVoltage),
             std::to_string(analysis.unsafeWidth())});
    }
    table.print(std::cout);

    const auto &alu = report.cell("selftest-alu", core).analysis;
    const auto &l2 = report.cell("selftest-l2", core).analysis;
    std::cout
        << "\nconclusion: the ALU test misbehaves at "
        << alu.highestAbnormalVoltage << " mV while the L2 test "
        << "keeps running until " << l2.highestCrashVoltage
        << " mV.\nTiming paths fail first on this design; SRAM "
           "arrays hold their data far deeper — the reason SDCs "
           "appear before\ncorrected errors on the X-Gene 2 "
           "(opposite of the Itanium studies).\n";
    return 0;
}
