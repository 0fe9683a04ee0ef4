/**
 * @file
 * Unit tests for the severity function (section 3.4.1 / Table 4).
 */

#include <gtest/gtest.h>

#include "core/severity.hh"

namespace vmargin
{
namespace
{

EffectSet
setOf(std::initializer_list<Effect> effects)
{
    EffectSet set;
    for (Effect e : effects)
        set.add(e);
    return set;
}

TEST(SeverityWeights, Table4Defaults)
{
    const SeverityWeights w;
    EXPECT_DOUBLE_EQ(w.sc, 16.0);
    EXPECT_DOUBLE_EQ(w.ac, 8.0);
    EXPECT_DOUBLE_EQ(w.sdc, 4.0);
    EXPECT_DOUBLE_EQ(w.ue, 2.0);
    EXPECT_DOUBLE_EQ(w.ce, 1.0);
    EXPECT_DOUBLE_EQ(w.weight(Effect::NO), 0.0);
}

TEST(Severity, AllNormalIsZero)
{
    EXPECT_DOUBLE_EQ(severity({EffectSet{}, EffectSet{}}), 0.0);
}

TEST(Severity, SingleRunSingleEffect)
{
    EXPECT_DOUBLE_EQ(severity({setOf({Effect::SDC})}), 4.0);
    EXPECT_DOUBLE_EQ(severity({setOf({Effect::SC})}), 16.0);
    EXPECT_DOUBLE_EQ(severity({setOf({Effect::CE})}), 1.0);
}

TEST(Severity, CompoundEffectsAddWithinARun)
{
    // SDC with corrected and uncorrected errors: 4 + 1 + 2 = 7
    // (the paper's "severity=5-7" band).
    EXPECT_DOUBLE_EQ(
        severity({setOf({Effect::SDC, Effect::CE, Effect::UE})}),
        7.0);
}

TEST(Severity, AveragesOverRuns)
{
    // Paper semantics: each effect term counts the runs in which the
    // effect appeared, divided by N.
    const std::vector<EffectSet> runs = {
        setOf({Effect::SC}), // 16
        setOf({Effect::SDC}), // 4
        EffectSet{},          // 0
        EffectSet{},          // 0
    };
    EXPECT_DOUBLE_EQ(severity(runs), 5.0);
}

TEST(Severity, EventCountsDoNotMatter)
{
    // "the actual number of uncorrected errors during each run is
    // not taken into consideration" — the effect either appeared in
    // a run or it did not, which EffectSet already encodes.
    const double one = severity({setOf({Effect::CE})});
    EXPECT_DOUBLE_EQ(one, 1.0);
}

TEST(Severity, Figure5StyleValues)
{
    // 10 runs: 7 crash, 3 with SDC -> 16*0.7 + 4*0.3 = 12.4, the
    // kind of intermediate value Figure 5 shows (e.g. 12.3).
    std::vector<EffectSet> runs;
    for (int i = 0; i < 7; ++i)
        runs.push_back(setOf({Effect::SC}));
    for (int i = 0; i < 3; ++i)
        runs.push_back(setOf({Effect::SDC}));
    EXPECT_NEAR(severity(runs), 12.4, 1e-12);
}

TEST(Severity, CustomWeights)
{
    SeverityWeights w;
    w.sdc = 100.0;
    EXPECT_DOUBLE_EQ(severity({setOf({Effect::SDC})}, w), 100.0);
}

TEST(Severity, MaxSeverity)
{
    EXPECT_DOUBLE_EQ(maxSeverity(), 31.0);
    std::vector<EffectSet> runs = {setOf({Effect::SDC, Effect::CE,
                                          Effect::UE, Effect::AC,
                                          Effect::SC})};
    EXPECT_DOUBLE_EQ(severity(runs), maxSeverity());
}

TEST(Severity, SeverityOfSetMatchesSingleRun)
{
    const EffectSet set = setOf({Effect::AC, Effect::CE});
    EXPECT_DOUBLE_EQ(severityOfSet(set), severity({set}));
}

TEST(Severity, DeathOnEmptyRuns)
{
    EXPECT_DEATH(severity({}), "at least one run");
}

TEST(Severity, DeathOnNegativeWeight)
{
    SeverityWeights w;
    w.ce = -1.0;
    EXPECT_DEATH(severity({EffectSet{}}, w), "negative weight");
}

TEST(Severity, SeverityOfSetDeathOnNegativeWeight)
{
    // severity() checks the weights once per call; the public
    // single-set form still checks them on every call, whatever the
    // set holds.
    SeverityWeights w;
    w.sc = -16.0;
    EXPECT_DEATH(severityOfSet(EffectSet{}, w), "negative weight");
    EXPECT_DEATH(severityOfSet(setOf({Effect::CE}), w), "negative weight");
}

} // namespace
} // namespace vmargin
