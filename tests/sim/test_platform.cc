/**
 * @file
 * Unit tests for the platform, watchdog, SLIMpro interface and the
 * thermal controller.
 */

#include <gtest/gtest.h>

#include "sim/platform.hh"
#include "sim/slimpro.hh"
#include "sim/watchdog.hh"
#include "workloads/spec.hh"

namespace vmargin::sim
{
namespace
{

Platform
machine()
{
    return Platform(XGene2Params{}, ChipCorner::TTT, 1);
}

TEST(Platform, BootsRunning)
{
    Platform p = machine();
    EXPECT_TRUE(p.responsive());
    EXPECT_EQ(p.state(), MachineState::Running);
    EXPECT_EQ(p.bootCount(), 1u);
}

TEST(Platform, CleanRunStaysUp)
{
    Platform p = machine();
    ExecutionConfig trim;
    trim.maxEpochs = 5;
    const RunResult r =
        p.runWorkload(4, wl::findWorkload("namd/ref"), 1, trim);
    EXPECT_FALSE(r.abnormal());
    EXPECT_TRUE(p.responsive());
}

TEST(Platform, DeepUndervoltHangsTheMachine)
{
    Platform p = machine();
    p.chip().pmdDomain().set(820); // below every crash point
    ExecutionConfig trim;
    trim.maxEpochs = 10;
    const RunResult r =
        p.runWorkload(0, wl::findWorkload("bwaves/ref"), 1, trim);
    EXPECT_TRUE(r.systemCrashed);
    EXPECT_FALSE(p.responsive());
    EXPECT_EQ(p.state(), MachineState::Unresponsive);
}

TEST(Platform, RunOnHungMachineReportsCrash)
{
    Platform p = machine();
    p.chip().pmdDomain().set(820);
    ExecutionConfig trim;
    trim.maxEpochs = 10;
    (void)p.runWorkload(0, wl::findWorkload("bwaves/ref"), 1, trim);
    ASSERT_FALSE(p.responsive());
    const RunResult r =
        p.runWorkload(1, wl::findWorkload("namd/ref"), 2, trim);
    EXPECT_TRUE(r.systemCrashed);
    EXPECT_EQ(r.epochsExecuted, 0u);
}

TEST(Platform, PowerCycleRecovers)
{
    Platform p = machine();
    p.chip().pmdDomain().set(820);
    ExecutionConfig trim;
    trim.maxEpochs = 10;
    (void)p.runWorkload(0, wl::findWorkload("bwaves/ref"), 1, trim);
    p.powerCycle();
    EXPECT_TRUE(p.responsive());
    EXPECT_EQ(p.bootCount(), 2u);
    EXPECT_EQ(p.chip().pmdDomain().voltage(), 980)
        << "reboot restores nominal settings";
}

TEST(Platform, PowerOff)
{
    Platform p = machine();
    p.powerOff();
    EXPECT_FALSE(p.responsive());
    EXPECT_EQ(p.state(), MachineState::Off);
}

TEST(Watchdog, NoInterventionWhenHealthy)
{
    Platform p = machine();
    Watchdog dog(&p);
    EXPECT_FALSE(dog.ensureResponsive(WatchdogContext::Poll));
    EXPECT_EQ(dog.interventions(), 0u);
}

TEST(Watchdog, PowerCyclesHungMachine)
{
    Platform p = machine();
    Watchdog dog(&p);
    p.chip().pmdDomain().set(820);
    ExecutionConfig trim;
    trim.maxEpochs = 10;
    (void)p.runWorkload(0, wl::findWorkload("bwaves/ref"), 1, trim);
    ASSERT_FALSE(p.responsive());

    EXPECT_TRUE(dog.ensureResponsive(WatchdogContext::PreRunCheck));
    EXPECT_TRUE(p.responsive());
    ASSERT_EQ(dog.interventions(), 1u);
    EXPECT_EQ(dog.events()[0].context, WatchdogContext::PreRunCheck);
    EXPECT_EQ(dog.events()[0].outcome, WatchdogOutcome::PowerCycled);
    EXPECT_EQ(dog.events()[0].pmdVoltage, 820)
        << "event records the voltage that killed the machine";
}

TEST(SlimPro, VoltageAndFrequencyControl)
{
    Platform p = machine();
    SlimPro mgmt(&p);
    EXPECT_TRUE(mgmt.setPmdVoltage(905));
    EXPECT_EQ(mgmt.pmdVoltage(), 905);
    EXPECT_FALSE(mgmt.setPmdVoltage(902)) << "off-grid";
    EXPECT_TRUE(mgmt.setSocVoltage(945));
    EXPECT_EQ(p.chip().socDomain().voltage(), 945);
    EXPECT_TRUE(mgmt.setPmdFrequency(2, 1200));
    EXPECT_EQ(p.chip().pmd(2).clock().frequency(), 1200);
    EXPECT_FALSE(mgmt.setPmdFrequency(2, 1000));
}

TEST(SlimPro, RefusesWhenMachineDown)
{
    Platform p = machine();
    SlimPro mgmt(&p);
    p.powerOff();
    EXPECT_FALSE(mgmt.setPmdVoltage(975));
    EXPECT_FALSE(mgmt.setPmdFrequency(0, 1200));
}

TEST(Thermal, SettlesAtTarget)
{
    ThermalModel thermal(26.0);
    thermal.setTarget(43.0);
    for (int i = 0; i < 100; ++i)
        thermal.step(1.0, 20.0);
    EXPECT_NEAR(thermal.temperature(), 43.0, 0.5);
}

TEST(Thermal, PowerLeavesOnlyResidual)
{
    // The fan controller compensates load: +/-20 W moves the
    // stabilized temperature by ~1 C, not tens.
    ThermalModel hot(26.0), cold(26.0);
    for (int i = 0; i < 100; ++i) {
        hot.step(1.0, 35.0);
        cold.step(1.0, 5.0);
    }
    EXPECT_GT(hot.temperature(), cold.temperature());
    EXPECT_LT(hot.temperature() - cold.temperature(), 3.0);
}

TEST(Thermal, NeverBelowAmbient)
{
    ThermalModel thermal(26.0);
    thermal.setTarget(10.0); // clamped to ambient
    for (int i = 0; i < 50; ++i)
        thermal.step(1.0, 0.0);
    EXPECT_GE(thermal.temperature(), 26.0);
}

TEST(Thermal, ResetReturnsToAmbient)
{
    ThermalModel thermal(26.0);
    thermal.step(100.0, 20.0);
    thermal.reset();
    EXPECT_DOUBLE_EQ(thermal.temperature(), 26.0);
}

TEST(Platform, StabilizedAt43AfterBoot)
{
    Platform p = machine();
    // The paper stabilizes every experiment at 43 C.
    EXPECT_NEAR(p.thermal().temperature(), 43.0, 1.5);
}

} // namespace
} // namespace vmargin::sim
