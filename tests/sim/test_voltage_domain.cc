/**
 * @file
 * Unit tests for the regulated voltage domains.
 */

#include <gtest/gtest.h>

#include "sim/voltage_domain.hh"

namespace vmargin::sim
{
namespace
{

VoltageDomain
pmdDomain()
{
    return VoltageDomain("PMD", 980, 5, 500);
}

TEST(VoltageDomain, StartsAtNominal)
{
    const auto domain = pmdDomain();
    EXPECT_EQ(domain.voltage(), 980);
    EXPECT_EQ(domain.undervolt(), 0);
}

TEST(VoltageDomain, AcceptsAlignedSetpoints)
{
    auto domain = pmdDomain();
    EXPECT_TRUE(domain.set(905));
    EXPECT_EQ(domain.voltage(), 905);
    EXPECT_EQ(domain.undervolt(), 75);
}

TEST(VoltageDomain, RejectsOffGrid)
{
    auto domain = pmdDomain();
    EXPECT_FALSE(domain.set(903));
    EXPECT_EQ(domain.voltage(), 980) << "failed set must not move";
}

TEST(VoltageDomain, RejectsAboveNominal)
{
    auto domain = pmdDomain();
    EXPECT_FALSE(domain.set(985));
}

TEST(VoltageDomain, RejectsBelowFloor)
{
    auto domain = pmdDomain();
    EXPECT_FALSE(domain.set(495));
    EXPECT_TRUE(domain.set(500));
}

TEST(VoltageDomain, Reset)
{
    auto domain = pmdDomain();
    domain.set(760);
    domain.reset();
    EXPECT_EQ(domain.voltage(), 980);
}

TEST(VoltageDomain, LegalPredicateMatchesSet)
{
    auto domain = pmdDomain();
    for (MilliVolt v : {980, 975, 760, 505, 500})
        EXPECT_TRUE(domain.legal(v)) << v;
    for (MilliVolt v : {981, 978, 495, 1000})
        EXPECT_FALSE(domain.legal(v)) << v;
}

TEST(VoltageDomain, SocDomainNominal)
{
    VoltageDomain domain("PCP/SoC", 950, 5, 500);
    EXPECT_EQ(domain.nominal(), 950);
    EXPECT_TRUE(domain.set(945));
    EXPECT_FALSE(domain.set(955));
}

TEST(VoltageDomain, DeathOnBadConstruction)
{
    EXPECT_DEATH(VoltageDomain("bad", 980, 0, 500), "step");
    EXPECT_DEATH(VoltageDomain("bad", 980, 5, 990), "floor");
    EXPECT_DEATH(VoltageDomain("bad", 980, 5, 502),
                 "whole steps");
}

} // namespace
} // namespace vmargin::sim
