/**
 * @file
 * Unit tests for the package power model and the paper's relative
 * power arithmetic.
 */

#include <gtest/gtest.h>

#include "power/power_model.hh"

namespace vmargin::power
{
namespace
{

CoreOperatingPoint
nominalPoint()
{
    CoreOperatingPoint op;
    op.voltage = 980;
    op.frequency = 2400;
    op.activity = 0.6;
    op.leakageFactor = 1.0;
    op.temperature = 43.0;
    return op;
}

TEST(PowerModel, QuadraticInVoltage)
{
    const PowerModel model;
    CoreOperatingPoint lo = nominalPoint();
    lo.voltage = 490; // exactly half
    const double ratio = model.coreDynamic(lo) /
                         model.coreDynamic(nominalPoint());
    EXPECT_NEAR(ratio, 0.25, 1e-12);
}

TEST(PowerModel, LinearInFrequencyAndActivity)
{
    const PowerModel model;
    CoreOperatingPoint half_f = nominalPoint();
    half_f.frequency = 1200;
    EXPECT_NEAR(model.coreDynamic(half_f) /
                    model.coreDynamic(nominalPoint()),
                0.5, 1e-12);
    CoreOperatingPoint half_a = nominalPoint();
    half_a.activity = 0.3;
    EXPECT_NEAR(model.coreDynamic(half_a) /
                    model.coreDynamic(nominalPoint()),
                0.5, 1e-12);
}

TEST(PowerModel, LeakageScalesWithFactorAndTemperature)
{
    const PowerModel model;
    CoreOperatingPoint tff = nominalPoint();
    tff.leakageFactor = 1.6;
    EXPECT_NEAR(model.coreLeakage(tff) /
                    model.coreLeakage(nominalPoint()),
                1.6, 1e-12);

    CoreOperatingPoint hot = nominalPoint();
    hot.temperature = 68.0; // one doubling above 43 C
    EXPECT_NEAR(model.coreLeakage(hot) /
                    model.coreLeakage(nominalPoint()),
                2.0, 1e-9);
}

TEST(PowerModel, PackageWithinTdp)
{
    // Fully loaded nominal chip: inside the 35 W TDP but not
    // implausibly low.
    const PowerModel model;
    CoreOperatingPoint loaded = nominalPoint();
    loaded.activity = 0.75;
    const Watt package =
        model.socPower(950, 43.0, 1.0) + 8 * model.corePower(loaded);
    EXPECT_LT(package, 35.0);
    EXPECT_GT(package, 20.0);
}

TEST(PowerModel, SocPowerPresentWhenCoresIdle)
{
    const PowerModel model;
    const Watt package = model.socPower(950, 43.0, 1.0);
    EXPECT_GT(package, 3.0);
    EXPECT_LT(package, 8.0);
}

TEST(PowerModel, UndervoltingSavesPower)
{
    const PowerModel model;
    CoreOperatingPoint scaled = nominalPoint();
    scaled.voltage = 885;
    EXPECT_LT(model.corePower(scaled),
              model.corePower(nominalPoint()));
}

TEST(RelativePower, PaperHeadlineNumbers)
{
    // The paper's savings arithmetic: (915/980)^2 -> 12.8%,
    // (880/980)^2 -> 19.4%, (885/980)^2 at 75% freq -> 38.8%,
    // (760/980)^2 at 50% freq -> 69.9%.
    EXPECT_NEAR(savingsPercent(relativeDynamicPower(915, 980, 1.0)),
                12.8, 0.2);
    EXPECT_NEAR(savingsPercent(relativeDynamicPower(880, 980, 1.0)),
                19.4, 0.2);
    EXPECT_NEAR(savingsPercent(relativeDynamicPower(885, 980, 0.75)),
                38.8, 0.3);
    EXPECT_NEAR(savingsPercent(relativeDynamicPower(760, 980, 0.5)),
                69.9, 0.3);
}

TEST(RelativePower, NominalIsUnity)
{
    EXPECT_DOUBLE_EQ(relativeDynamicPower(980, 980, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(savingsPercent(1.0), 0.0);
}

} // namespace
} // namespace vmargin::power
