/**
 * @file
 * Parameterized property sweeps encoding the paper's cross-cutting
 * claims over the full (corner x core x workload) space at the
 * measurement level. Heavier than unit tests, lighter than the
 * bench harnesses.
 */

#include <gtest/gtest.h>

#include "core/framework.hh"
#include "power/power_model.hh"
#include "workloads/spec.hh"

namespace vmargin
{
namespace
{

/** One characterization per corner, shared across properties. */
class PaperPropertyTest
    : public ::testing::TestWithParam<sim::ChipCorner>
{
  protected:
    static CharacterizationReport
    characterize(sim::ChipCorner corner)
    {
        sim::Platform platform(sim::XGene2Params{}, corner, 1);
        CharacterizationFramework framework(&platform);
        FrameworkConfig config;
        config.workloads = {wl::findWorkload("bwaves/ref"),
                            wl::findWorkload("mcf/ref"),
                            wl::findWorkload("namd/ref")};
        config.cores = {0, 1, 4, 5};
        config.campaigns = 5;
        config.maxEpochs = 10;
        config.startVoltage = 935;
        config.endVoltage = 830;
        return framework.characterize(config);
    }

    static const CharacterizationReport &
    reportFor(sim::ChipCorner corner)
    {
        static std::map<sim::ChipCorner, CharacterizationReport>
            cache;
        auto it = cache.find(corner);
        if (it == cache.end())
            it = cache.emplace(corner, characterize(corner)).first;
        return it->second;
    }
};

TEST_P(PaperPropertyTest, SafeAboveUnsafeAboveCrash)
{
    // Region ordering: no Safe level below an Unsafe one, no
    // Unsafe level below a Crash one, per cell.
    const auto &report = reportFor(GetParam());
    for (const auto &cell : report.cells) {
        MilliVolt lowest_safe = 0, highest_unsafe = 0;
        MilliVolt lowest_unsafe = 0, highest_crash = 0;
        for (const auto &[v, region] : cell.analysis.regions) {
            switch (region) {
              case Region::Safe:
                if (!lowest_safe || v < lowest_safe)
                    lowest_safe = v;
                break;
              case Region::Unsafe:
                highest_unsafe = std::max(highest_unsafe, v);
                if (!lowest_unsafe || v < lowest_unsafe)
                    lowest_unsafe = v;
                break;
              case Region::Crash:
                highest_crash = std::max(highest_crash, v);
                break;
            }
        }
        if (highest_unsafe) {
            EXPECT_GT(lowest_safe, highest_unsafe)
                << cell.workloadId << " core " << cell.core;
        }
        if (highest_crash && lowest_unsafe) {
            EXPECT_GT(lowest_unsafe, highest_crash)
                << cell.workloadId << " core " << cell.core;
        }
    }
}

TEST_P(PaperPropertyTest, SeverityNeverExceedsItsMaximum)
{
    const auto &report = reportFor(GetParam());
    // Every effect in every run: the sum of all the weights.
    const SeverityWeights w;
    const double max_severity = w.sdc + w.ce + w.ue + w.ac + w.sc;
    for (const auto &cell : report.cells) {
        for (const auto &[v, sev] :
             cell.analysis.severityByVoltage) {
            EXPECT_GE(sev, 0.0);
            EXPECT_LE(sev, max_severity);
        }
    }
}

TEST_P(PaperPropertyTest, SeverityZeroExactlyInSafeRegion)
{
    const auto &report = reportFor(GetParam());
    for (const auto &cell : report.cells) {
        for (const auto &[v, region] : cell.analysis.regions) {
            const double sev =
                cell.analysis.severityByVoltage.at(v);
            if (region == Region::Safe)
                EXPECT_EQ(sev, 0.0)
                    << cell.workloadId << "@" << v;
            else
                EXPECT_GT(sev, 0.0)
                    << cell.workloadId << "@" << v;
        }
    }
}

TEST_P(PaperPropertyTest, GuardbandAlwaysPositive)
{
    // Every cell leaves real margin below the 980 mV nominal.
    const auto &report = reportFor(GetParam());
    for (const auto &cell : report.cells) {
        EXPECT_GE(cell.analysis.guardband(980), 45)
            << cell.workloadId << " core " << cell.core;
        EXPECT_LE(cell.analysis.guardband(980), 140)
            << cell.workloadId << " core " << cell.core;
    }
}

TEST_P(PaperPropertyTest, SameWorkloadOrderingOnEveryCore)
{
    // mcf < bwaves < namd in Vmin on every characterized core.
    const auto &report = reportFor(GetParam());
    for (CoreId core : {0, 1, 4, 5}) {
        const MilliVolt mcf =
            report.cell("mcf/ref", core).analysis.vmin;
        const MilliVolt bwaves =
            report.cell("bwaves/ref", core).analysis.vmin;
        const MilliVolt namd =
            report.cell("namd/ref", core).analysis.vmin;
        EXPECT_LE(mcf, bwaves) << "core " << core;
        EXPECT_LE(bwaves, namd) << "core " << core;
    }
}

INSTANTIATE_TEST_SUITE_P(AllCorners, PaperPropertyTest,
                         ::testing::Values(sim::ChipCorner::TTT,
                                           sim::ChipCorner::TFF,
                                           sim::ChipCorner::TSS));

/** Power-model property sweep over the operating grid. */
class PowerGridTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(PowerGridTest, PowerMonotoneInVoltageAndFrequency)
{
    const auto [v, f] = GetParam();
    const power::PowerModel model;
    power::CoreOperatingPoint op;
    op.voltage = v;
    op.frequency = f;
    op.activity = 0.6;

    power::CoreOperatingPoint lower_v = op;
    lower_v.voltage = v - 5;
    EXPECT_LT(model.corePower(lower_v), model.corePower(op));

    if (f > 300) {
        power::CoreOperatingPoint lower_f = op;
        lower_f.frequency = f - 300;
        EXPECT_LT(model.corePower(lower_f), model.corePower(op));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PowerGridTest,
    ::testing::Combine(::testing::Values(980, 915, 885, 760),
                       ::testing::Values(2400, 1800, 1200, 300)));

} // namespace
} // namespace vmargin
