/**
 * @file
 * Unit tests for the chip assembly (PMDs, domains, run routing).
 */

#include <gtest/gtest.h>

#include "sim/chip.hh"
#include "workloads/spec.hh"

namespace vmargin::sim
{
namespace
{

TEST(Pmd, OwnsItsCores)
{
    XGene2Params params;
    CacheHierarchy caches(params);
    Pmd pmd(1, params, &caches);
    EXPECT_TRUE(pmd.owns(2));
    EXPECT_TRUE(pmd.owns(3));
    EXPECT_FALSE(pmd.owns(4));
    EXPECT_EQ(pmd.coreIds(), (std::vector<CoreId>{2, 3}));
    EXPECT_EQ(pmd.core(2).id(), 2);
    EXPECT_EQ(pmd.localCore(1).id(), 3);
}

TEST(Pmd, DeathOnForeignCore)
{
    XGene2Params params;
    CacheHierarchy caches(params);
    Pmd pmd(1, params, &caches);
    EXPECT_DEATH(pmd.core(5), "another PMD");
}

TEST(Chip, Construction)
{
    Chip chip(XGene2Params{}, ChipCorner::TFF, 7);
    EXPECT_EQ(chip.corner(), ChipCorner::TFF);
    EXPECT_EQ(chip.serial(), 7u);
    EXPECT_EQ(chip.name(), "TFF#7");
    EXPECT_EQ(chip.pmdDomain().voltage(), 980);
    EXPECT_EQ(chip.socDomain().voltage(), 950);
    for (PmdId p = 0; p < 4; ++p)
        EXPECT_EQ(chip.pmd(p).clock().frequency(), 2400);
}

TEST(Chip, CoreRouting)
{
    Chip chip(XGene2Params{}, ChipCorner::TTT, 1);
    for (CoreId c = 0; c < 8; ++c)
        EXPECT_EQ(chip.core(c).id(), c);
}

TEST(Chip, RunUsesCurrentSettings)
{
    Chip chip(XGene2Params{}, ChipCorner::TTT, 1);
    chip.pmdDomain().set(960);
    chip.pmd(2).clock().set(1200);
    ExecutionConfig trim;
    trim.maxEpochs = 5;
    const RunResult r = chip.runOnCore(
        4, wl::findWorkload("gromacs/ref"), 1, trim);
    EXPECT_EQ(r.voltage, 960);
    EXPECT_EQ(r.frequency, 1200);
}

TEST(Chip, RunAppendsEdacRecords)
{
    Chip chip(XGene2Params{}, ChipCorner::TTT, 1);
    // Deep in the unsafe region of a sensitive core: CEs certain,
    // but above the crash point for bwaves (sdc onset ~898,
    // sc ~ -27).
    chip.pmdDomain().set(880);
    ExecutionConfig trim;
    trim.maxEpochs = 10;
    const RunResult r = chip.runOnCore(
        0, wl::findWorkload("bwaves/ref"), 3, trim);
    if (r.correctedErrors > 0) {
        EXPECT_GE(chip.edac().correctedCount(), r.correctedErrors);
    }
}

TEST(Chip, ResetRestoresEverything)
{
    Chip chip(XGene2Params{}, ChipCorner::TTT, 1);
    chip.pmdDomain().set(760);
    chip.socDomain().set(900);
    chip.pmd(0).clock().set(300);
    const uint64_t addr = 0x1000;
    const uint8_t write = 1;
    const uint8_t read = 0;
    chip.caches().dataAccessBatch(0, &addr, &write, 1);
    ErrorRecord record;
    chip.edac().report(record);

    chip.reset();
    EXPECT_EQ(chip.pmdDomain().voltage(), 980);
    EXPECT_EQ(chip.socDomain().voltage(), 950);
    EXPECT_EQ(chip.pmd(0).clock().frequency(), 2400);
    EXPECT_TRUE(chip.edac().records().empty());
    EXPECT_EQ(chip.caches().dataAccessBatch(0, &addr, &read, 1).l1Miss,
              1u);
}

TEST(Chip, SameSerialSameBehaviour)
{
    Chip a(XGene2Params{}, ChipCorner::TSS, 3);
    Chip b(XGene2Params{}, ChipCorner::TSS, 3);
    const auto w = wl::findWorkload("milc/ref");
    a.pmdDomain().set(880);
    b.pmdDomain().set(880);
    ExecutionConfig trim;
    trim.maxEpochs = 8;
    const RunResult ra = a.runOnCore(2, w, 99, trim);
    const RunResult rb = b.runOnCore(2, w, 99, trim);
    EXPECT_EQ(ra.sdcEvents, rb.sdcEvents);
    EXPECT_EQ(ra.correctedErrors, rb.correctedErrors);
    EXPECT_EQ(ra.systemCrashed, rb.systemCrashed);
}

TEST(Chip, DeathOnBadPmd)
{
    Chip chip(XGene2Params{}, ChipCorner::TTT, 1);
    EXPECT_DEATH(chip.pmd(4), "out of range");
}

} // namespace
} // namespace vmargin::sim
