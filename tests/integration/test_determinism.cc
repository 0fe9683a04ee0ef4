/**
 * @file
 * Whole-pipeline determinism: identical configurations on identical
 * chips must reproduce byte-identical results, whatever the previous
 * history of the platform objects.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/framework.hh"
#include "workloads/spec.hh"

namespace vmargin
{
namespace
{

FrameworkConfig
smallConfig()
{
    FrameworkConfig config;
    config.workloads = {wl::findWorkload("leslie3d/ref")};
    config.cores = {0, 4};
    config.campaigns = 3;
    config.maxEpochs = 8;
    config.startVoltage = 930;
    config.endVoltage = 850;
    return config;
}

TEST(Determinism, TwoFreshPlatformsAgree)
{
    sim::Platform a(sim::XGene2Params{}, sim::ChipCorner::TTT, 5);
    sim::Platform b(sim::XGene2Params{}, sim::ChipCorner::TTT, 5);
    CharacterizationFramework fa(&a), fb(&b);
    const auto ra = fa.characterize(smallConfig());
    const auto rb = fb.characterize(smallConfig());
    EXPECT_EQ(ra.toCsv(), rb.toCsv());
    EXPECT_EQ(ra.cells, rb.cells);
}

TEST(Determinism, RepeatOnSamePlatformAgrees)
{
    sim::Platform platform(sim::XGene2Params{}, sim::ChipCorner::TFF,
                           2);
    CharacterizationFramework framework(&platform);
    const auto first = framework.characterize(smallConfig());
    const auto second = framework.characterize(smallConfig());
    EXPECT_EQ(first.toCsv(), second.toCsv());
}

sim::FaultPlanConfig
hostilePlan()
{
    sim::FaultPlanConfig plan;
    plan.i2cWriteFailure = 0.10;
    plan.watchdogMiss = 0.05;
    plan.managementHang = 0.002;
    plan.staleRead = 0.05;
    plan.seed = 99;
    return plan;
}

TEST(Determinism, FaultyRunsOnFreshPlatformsAgree)
{
    // Injected faults draw from seeded per-op streams scoped to the
    // experiment coordinates, so a hostile sweep must replay
    // bit-identically just like a clean one.
    sim::Platform a(sim::XGene2Params{}, sim::ChipCorner::TTT, 5);
    sim::Platform b(sim::XGene2Params{}, sim::ChipCorner::TTT, 5);
    a.installFaultPlan(hostilePlan());
    b.installFaultPlan(hostilePlan());
    CharacterizationFramework fa(&a), fb(&b);
    const auto ra = fa.characterize(smallConfig());
    const auto rb = fb.characterize(smallConfig());
    EXPECT_EQ(ra.toCsv(), rb.toCsv());
    EXPECT_EQ(ra.cells, rb.cells);
    EXPECT_EQ(ra.telemetry.retries, rb.telemetry.retries);
    EXPECT_EQ(ra.telemetry.lostMeasurements,
              rb.telemetry.lostMeasurements);
    EXPECT_EQ(ra.watchdogInterventions, rb.watchdogInterventions);
}

TEST(Determinism, FaultyRepeatOnSamePlatformAgrees)
{
    // Fault streams are rebased per campaign (scopeTo), so a second
    // sweep on the same plan sees the same faults — history on the
    // platform must not leak into the injected sequence.
    sim::Platform platform(sim::XGene2Params{}, sim::ChipCorner::TFF,
                           2);
    platform.installFaultPlan(hostilePlan());
    CharacterizationFramework framework(&platform);
    const auto first = framework.characterize(smallConfig());
    const auto second = framework.characterize(smallConfig());
    EXPECT_EQ(first.toCsv(), second.toCsv());
    EXPECT_EQ(first.telemetry.retries, second.telemetry.retries);
}

TEST(Determinism, FaultSeedChangesFaultSequenceOnly)
{
    // A different plan seed changes where faults land (telemetry)
    // but the classified physics underneath stays put: Vmin cannot
    // move by more than the odd lost measurement allows.
    sim::Platform a(sim::XGene2Params{}, sim::ChipCorner::TTT, 5);
    sim::Platform b(sim::XGene2Params{}, sim::ChipCorner::TTT, 5);
    auto plan = hostilePlan();
    a.installFaultPlan(plan);
    plan.seed = 100;
    b.installFaultPlan(plan);
    CharacterizationFramework fa(&a), fb(&b);
    const auto ra = fa.characterize(smallConfig());
    const auto rb = fb.characterize(smallConfig());
    for (const auto &cell : ra.cells) {
        const auto &other = rb.cell(cell.workloadId, cell.core);
        EXPECT_LE(
            std::abs(other.analysis.vmin - cell.analysis.vmin), 10);
    }
}

TEST(Determinism, DifferentSerialsDiffer)
{
    sim::Platform a(sim::XGene2Params{}, sim::ChipCorner::TTT, 1);
    sim::Platform b(sim::XGene2Params{}, sim::ChipCorner::TTT, 2);
    CharacterizationFramework fa(&a), fb(&b);
    const auto ra = fa.characterize(smallConfig());
    const auto rb = fb.characterize(smallConfig());
    EXPECT_NE(ra.toCsv(), rb.toCsv());
}

TEST(Determinism, CornersDiffer)
{
    sim::Platform a(sim::XGene2Params{}, sim::ChipCorner::TTT, 1);
    sim::Platform b(sim::XGene2Params{}, sim::ChipCorner::TSS, 1);
    CharacterizationFramework fa(&a), fb(&b);
    const auto config = smallConfig();
    const auto ra = fa.characterize(config);
    const auto rb = fb.characterize(config);
    // TSS is the weak corner: strictly higher Vmin on every cell.
    for (const auto &cell : ra.cells) {
        EXPECT_LT(cell.analysis.vmin,
                  rb.cell(cell.workloadId, cell.core).analysis.vmin);
    }
}

} // namespace
} // namespace vmargin
