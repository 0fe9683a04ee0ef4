/**
 * @file
 * Unit tests for DVFS sweep helpers.
 */

#include <gtest/gtest.h>

#include "power/dvfs.hh"

namespace vmargin::power
{
namespace
{

TEST(VoltageSweep, DescendingInclusive)
{
    const auto sweep = voltageSweep(980, 965, 5);
    EXPECT_EQ(sweep,
              (std::vector<MilliVolt>{980, 975, 970, 965}));
}

TEST(VoltageSweep, SinglePoint)
{
    const auto sweep = voltageSweep(900, 900, 5);
    EXPECT_EQ(sweep.size(), 1u);
    EXPECT_EQ(sweep[0], 900);
}

TEST(VoltageSweep, UnreachableFloorStopsAbove)
{
    const auto sweep = voltageSweep(980, 972, 5);
    EXPECT_EQ(sweep.back(), 975);
}

TEST(VoltageSweep, DeathOnBadArgs)
{
    EXPECT_DEATH(voltageSweep(980, 990, 5), "below");
    EXPECT_DEATH(voltageSweep(980, 900, 0), "positive");
}

} // namespace
} // namespace vmargin::power
