/**
 * @file
 * Unit tests for the severity function (section 3.4.1 / Table 4),
 * computed by SeverityTally.
 */

#include <gtest/gtest.h>

#include <bit>
#include <vector>

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

/** S_v of @p runs, tallied in order. */
double
severity(const std::vector<EffectSet> &runs,
         const SeverityWeights &weights = {})
{
    const RunWeightTable table(weights);
    SeverityTally tally;
    for (const EffectSet &run : runs)
        tally.add(run, table);
    return tally.severity();
}

/** All five weights: the severity of a run showing every effect. */
double
weightTotal(const SeverityWeights &w)
{
    return w.sdc + w.ce + w.ue + w.ac + w.sc;
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
    EXPECT_DOUBLE_EQ(weightTotal(SeverityWeights{}), 31.0);
    std::vector<EffectSet> runs = {setOf({Effect::SDC, Effect::CE,
                                          Effect::UE, Effect::AC,
                                          Effect::SC})};
    EXPECT_DOUBLE_EQ(severity(runs), weightTotal(SeverityWeights{}));
}

TEST(Severity, SeverityOfSetMatchesSingleRun)
{
    // One run (N = 1): the sum of the weights of its effects.
    const EffectSet set = setOf({Effect::AC, Effect::CE});
    const SeverityWeights w;
    EXPECT_DOUBLE_EQ(severity({set}), w.ac + w.ce);
}

TEST(Severity, TallyUnitesTheEffectsOfItsRuns)
{
    SeverityTally tally;
    EXPECT_TRUE(tally.effects().normal());
    const RunWeightTable table;
    tally.add(setOf({Effect::CE}), table);
    tally.add(EffectSet{}, table);
    tally.add(setOf({Effect::SC, Effect::SDC}), table);
    EXPECT_EQ(tally.effects(),
              setOf({Effect::CE, Effect::SC, Effect::SDC}));
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
    // The weight table a run is weighed by refuses a negative weight
    // when it is built, whatever the run's effects, also after runs
    // with valid weights.
    SeverityWeights w;
    w.sc = -16.0;
    EXPECT_DEATH(SeverityTally().add(EffectSet{}, RunWeightTable(w)),
                 "negative weight");
    EXPECT_DEATH(SeverityTally().add(setOf({Effect::CE}), RunWeightTable(w)),
                 "negative weight");
    SeverityTally tally;
    tally.add(setOf({Effect::CE}), RunWeightTable{});
    EXPECT_DEATH(tally.add(setOf({Effect::CE}), RunWeightTable(w)),
                 "negative weight");
}

TEST(Severity, WeightTableMatchesThePerRunLoop)
{
    // Weights whose sums depend on the order they are added in: each
    // of the 32 sets' table entry must carry the bits of the per-run
    // loop, which sums in SDC, CE, UE, AC, SC order.
    for (const SeverityWeights w :
         {SeverityWeights{0.1, 0.7, 1.0 / 3.0, 0.3, 2.9},
          SeverityWeights{1.0 / 3.0, 0.1, 0.2, 1.0 / 7.0, 0.1},
          SeverityWeights{}}) {
        const RunWeightTable table(w);
        for (size_t bits = 0; bits < kEffectSets; ++bits) {
            const EffectSet run = EffectSet::fromBits(bits);
            ASSERT_EQ(run.bits(), bits);
            double loop = 0.0;
            for (Effect e : {Effect::SDC, Effect::CE, Effect::UE,
                             Effect::AC, Effect::SC})
                if (run.has(e))
                    loop += w.weight(e);
            EXPECT_EQ(std::bit_cast<uint64_t>(table(run)),
                      std::bit_cast<uint64_t>(loop))
                << "set " << run.toString();
            EXPECT_EQ(std::bit_cast<uint64_t>(w.runWeight(run)),
                      std::bit_cast<uint64_t>(loop));
        }
    }
    // The order is visible under such weights: summing SC first
    // misses some set's bits.
    const SeverityWeights w{0.1, 0.7, 1.0 / 3.0, 0.3, 2.9};
    const RunWeightTable table(w);
    size_t orderSensitive = 0;
    for (size_t bits = 0; bits < kEffectSets; ++bits) {
        const EffectSet run = EffectSet::fromBits(bits);
        double reversed = 0.0;
        for (Effect e : {Effect::SC, Effect::AC, Effect::UE, Effect::CE,
                         Effect::SDC})
            if (run.has(e))
                reversed += w.weight(e);
        orderSensitive += reversed != table(run);
    }
    EXPECT_GT(orderSensitive, 0u);
}

} // namespace
} // namespace vmargin
