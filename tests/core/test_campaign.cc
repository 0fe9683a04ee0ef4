/**
 * @file
 * Unit tests for the campaign runner (execution-phase methodology).
 */

#include <gtest/gtest.h>

#include "core/campaign.hh"
#include "workloads/spec.hh"

namespace vmargin
{
namespace
{

class CampaignTest : public ::testing::Test
{
  protected:
    CampaignTest()
        : platform_(sim::XGene2Params{}, sim::ChipCorner::TTT, 1),
          runner_(&platform_)
    {
    }

    CampaignConfig
    config(const std::string &workload, CoreId core,
           MilliVolt start, MilliVolt end)
    {
        CampaignConfig c;
        c.workload = wl::findWorkload(workload);
        c.core = core;
        c.startVoltage = start;
        c.endVoltage = end;
        c.maxEpochs = 10;
        return c;
    }

    sim::Platform platform_;
    CampaignRunner runner_;
};

TEST_F(CampaignTest, SafeSweepIsAllNormal)
{
    // 980 down to 940 is far above every onset on this chip.
    const auto result =
        runner_.run(config("gromacs/ref", 4, 980, 940));
    EXPECT_EQ(result.runs.size(), 9u);
    for (const auto &run : result.runs)
        EXPECT_TRUE(run.effects.normal())
            << run.key.voltage << " mV";
    EXPECT_EQ(result.watchdogInterventions, 0u);
    EXPECT_EQ(result.lowestVoltageReached, 940);
}

TEST_F(CampaignTest, SweepFindsTheUnsafeRegion)
{
    const auto result =
        runner_.run(config("bwaves/ref", 0, 930, 840));
    bool abnormal_seen = false;
    bool crash_seen = false;
    for (const auto &run : result.runs) {
        abnormal_seen = abnormal_seen || !run.effects.normal();
        crash_seen = crash_seen || run.effects.has(Effect::SC);
    }
    EXPECT_TRUE(abnormal_seen);
    EXPECT_TRUE(crash_seen);
    EXPECT_GT(result.watchdogInterventions, 0u)
        << "crashes require the watchdog to power cycle";
}

TEST_F(CampaignTest, StopsAfterConsecutiveCrashLevels)
{
    const auto result =
        runner_.run(config("bwaves/ref", 0, 930, 700));
    EXPECT_GT(result.lowestVoltageReached, 700)
        << "the sweep must bail out inside the crash region";
}

TEST_F(CampaignTest, LeavesMachineCleanAtNominal)
{
    (void)runner_.run(config("bwaves/ref", 0, 930, 840));
    EXPECT_TRUE(platform_.responsive());
    EXPECT_EQ(platform_.chip().pmdDomain().voltage(), 980);
    for (PmdId p = 0; p < 4; ++p)
        EXPECT_EQ(platform_.chip().pmd(p).clock().frequency(), 2400);
}

TEST_F(CampaignTest, ReliableCoresSetupParksOtherPmds)
{
    // Observe the frequencies during the campaign via a 1-step
    // sweep that cannot crash.
    const auto cfg = config("namd/ref", 5, 980, 980);
    (void)runner_.run(cfg);
    // After the campaign frequencies are restored; what we can
    // check cheaply is that the campaign ran at the configured
    // frequency on the target core.
    const auto result = runner_.run(cfg);
    ASSERT_FALSE(result.runs.empty());
    EXPECT_EQ(result.runs[0].key.frequency, 2400);
}

TEST_F(CampaignTest, DeterministicAcrossRepetition)
{
    const auto cfg = config("milc/ref", 2, 920, 870);
    const auto a = runner_.run(cfg);
    const auto b = runner_.run(cfg);
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (size_t i = 0; i < a.runs.size(); ++i) {
        EXPECT_EQ(a.runs[i].effects, b.runs[i].effects);
        EXPECT_EQ(a.runs[i].sdcEvents, b.runs[i].sdcEvents);
    }
}

TEST_F(CampaignTest, CampaignIndexChangesOutcomes)
{
    auto cfg = config("milc/ref", 2, 900, 880);
    cfg.campaignIndex = 0;
    const auto a = runner_.run(cfg);
    cfg.campaignIndex = 1;
    const auto b = runner_.run(cfg);
    // Different repetition -> different seeds -> (almost surely)
    // at least one differing run outcome near the onset.
    bool any_diff = false;
    for (size_t i = 0; i < a.runs.size(); ++i)
        any_diff = any_diff ||
                   !(a.runs[i].effects == b.runs[i].effects) ||
                   a.runs[i].sdcEvents != b.runs[i].sdcEvents;
    EXPECT_TRUE(any_diff);
}

TEST_F(CampaignTest, RunsPerVoltageHonored)
{
    auto cfg = config("namd/ref", 4, 980, 975);
    cfg.runsPerVoltage = 3;
    const auto result = runner_.run(cfg);
    EXPECT_EQ(result.runs.size(), 6u);
}

TEST_F(CampaignTest, RawLogParsesToSameRuns)
{
    const auto result = runner_.run(config("mcf/ref", 1, 900, 870));
    // The lazily-rendered text log must reparse to exactly the runs
    // that were classified directly from the simulator results.
    const auto reparsed = parseCampaignLog(result.rawLog());
    ASSERT_EQ(reparsed.size(), result.runs.size());
    for (size_t i = 0; i < reparsed.size(); ++i)
        EXPECT_EQ(reparsed[i], result.runs[i]);
}

TEST_F(CampaignTest, FatalOnBadConfig)
{
    auto cfg = config("mcf/ref", 9, 900, 870);
    // The fatal names the core and the chip's core count.
    EXPECT_EXIT(runner_.run(cfg), ::testing::ExitedWithCode(1),
                "campaign: core 9 is out of range .* has 8 cores");
}

} // namespace
} // namespace vmargin
