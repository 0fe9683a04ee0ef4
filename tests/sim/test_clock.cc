/**
 * @file
 * Unit tests for PMD clocking and the skip/division speed classes.
 */

#include <gtest/gtest.h>

#include "sim/clock.hh"

namespace vmargin::sim
{
namespace
{

TEST(Clock, StartsAtMaximum)
{
    const ClockController clock{XGene2Params{}};
    EXPECT_EQ(clock.frequency(), 2400);
    EXPECT_EQ(clock.speedClass(), SpeedClass::Full);
}

TEST(Clock, LegalGrid)
{
    const ClockController clock{XGene2Params{}};
    for (MegaHertz f = 300; f <= 2400; f += 300)
        EXPECT_TRUE(clock.legal(f)) << f;
    EXPECT_FALSE(clock.legal(250));
    EXPECT_FALSE(clock.legal(2700));
    EXPECT_FALSE(clock.legal(1000));
}

TEST(Clock, SetRejectsIllegal)
{
    ClockController clock{XGene2Params{}};
    EXPECT_FALSE(clock.set(1000));
    EXPECT_EQ(clock.frequency(), 2400);
    EXPECT_TRUE(clock.set(1200));
    EXPECT_EQ(clock.frequency(), 1200);
}

TEST(Clock, SpeedClassBoundary)
{
    // Paper section 3.2: above 1.2 GHz behaves like 2.4 GHz (clock
    // skipping keeps full-speed edges); 1.2 GHz and below use the
    // divided clock.
    const ClockController clock{XGene2Params{}};
    EXPECT_EQ(clock.speedClassOf(2400), SpeedClass::Full);
    EXPECT_EQ(clock.speedClassOf(2100), SpeedClass::Full);
    EXPECT_EQ(clock.speedClassOf(1500), SpeedClass::Full);
    EXPECT_EQ(clock.speedClassOf(1200), SpeedClass::Half);
    EXPECT_EQ(clock.speedClassOf(900), SpeedClass::Half);
    EXPECT_EQ(clock.speedClassOf(300), SpeedClass::Half);
}

TEST(Clock, Reset)
{
    ClockController clock{XGene2Params{}};
    clock.set(300);
    clock.reset();
    EXPECT_EQ(clock.frequency(), 2400);
}

} // namespace
} // namespace vmargin::sim
