/**
 * @file
 * Unit tests for effect classification (Table 3).
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <optional>

#include "core/effects.hh"

namespace vmargin
{
namespace
{

TEST(Effects, NamesRoundTrip)
{
    for (Effect e : kAllEffects)
        EXPECT_EQ(effectFromName(effectName(e)), e);
    EXPECT_FALSE(effectFromName("ZZ").has_value());
}

TEST(Effects, DescriptionsNonEmpty)
{
    for (Effect e : kAllEffects)
        EXPECT_FALSE(effectDescription(e).empty());
}

TEST(EffectSet, EmptyMeansNormal)
{
    const EffectSet set;
    EXPECT_TRUE(set.normal());
    EXPECT_TRUE(set.has(Effect::NO));
    EXPECT_FALSE(set.has(Effect::SDC));
    EXPECT_EQ(set.count(), 0);
    EXPECT_EQ(set.toString(), "NO");
}

TEST(EffectSet, AddAndQuery)
{
    EffectSet set;
    set.add(Effect::SDC);
    set.add(Effect::CE);
    EXPECT_FALSE(set.normal());
    EXPECT_TRUE(set.has(Effect::SDC));
    EXPECT_TRUE(set.has(Effect::CE));
    EXPECT_FALSE(set.has(Effect::SC));
    EXPECT_FALSE(set.has(Effect::NO));
    EXPECT_EQ(set.count(), 2);
}

TEST(EffectSet, AddingNoIsNoOp)
{
    EffectSet set;
    set.add(Effect::NO);
    EXPECT_TRUE(set.normal());
}

TEST(EffectSet, AddIsIdempotent)
{
    EffectSet set;
    set.add(Effect::UE);
    set.add(Effect::UE);
    EXPECT_EQ(set.count(), 1);
}

TEST(EffectSet, StringRoundTrip)
{
    EffectSet set;
    set.add(Effect::SDC);
    set.add(Effect::AC);
    set.add(Effect::SC);
    EXPECT_EQ(set.toString(), "SDC,AC,SC");
    EXPECT_EQ(EffectSet::fromString("SDC,AC,SC"), set);
    EXPECT_EQ(EffectSet::fromString("NO"), EffectSet{});
    EXPECT_EQ(EffectSet::fromString(""), EffectSet{});
    EXPECT_EQ(EffectSet::fromString(" SDC , CE "),
              EffectSet::fromString("SDC,CE"));
    EXPECT_FALSE(EffectSet::fromString("SDC,ZZ").has_value());
}

TEST(EffectSet, FromStringHostileText)
{
    const auto set = [](std::initializer_list<Effect> effects) {
        EffectSet out;
        for (const Effect e : effects)
            out.add(e);
        return std::optional<EffectSet>(out);
    };
    // Accepted: ASCII whitespace around a token is trimmed, "NO" is
    // the empty set alone or among other names, a repeated name
    // counts once.
    EXPECT_EQ(EffectSet::fromString(""), set({}));
    EXPECT_EQ(EffectSet::fromString("NO"), set({}));
    EXPECT_EQ(EffectSet::fromString(" NO "), set({}));
    EXPECT_EQ(EffectSet::fromString("NO,NO"), set({}));
    EXPECT_EQ(EffectSet::fromString("SDC,NO"), set({Effect::SDC}));
    EXPECT_EQ(EffectSet::fromString(" SDC"), set({Effect::SDC}));
    EXPECT_EQ(EffectSet::fromString("\tSDC ,\n CE\r"),
              set({Effect::SDC, Effect::CE}));
    EXPECT_EQ(EffectSet::fromString("SC,SDC,SC"),
              set({Effect::SDC, Effect::SC}));
    EXPECT_EQ(EffectSet::fromString("SDC,CE,UE,AC,SC"),
              set({Effect::SDC, Effect::CE, Effect::UE, Effect::AC,
                   Effect::SC}));
    // Refused: empty tokens (leading, doubled or trailing
    // separators, blank text), unknown or mis-cased names, another
    // separator.
    for (const char *text :
         {"SDC,,CE", "SDC,", ",SDC", ",", " ", "SDC, ,CE", "sdc", "XYZ",
          "SDC,XYZ", "SDC;CE", "SDC CE", "NO SDC"})
        EXPECT_EQ(EffectSet::fromString(text), std::nullopt) << text;
}

TEST(ClassifyRun, NormalOperation)
{
    sim::RunResult run;
    run.completed = true;
    run.outputMatches = true;
    EXPECT_TRUE(classifyRun(run).normal());
}

TEST(ClassifyRun, SdcRequiresCompletion)
{
    sim::RunResult run;
    run.completed = true;
    run.outputMatches = false;
    EXPECT_TRUE(classifyRun(run).has(Effect::SDC));

    // An unfinished run has no output to compare: no SDC label.
    run.completed = false;
    run.applicationCrashed = true;
    const EffectSet set = classifyRun(run);
    EXPECT_FALSE(set.has(Effect::SDC));
    EXPECT_TRUE(set.has(Effect::AC));
}

TEST(ClassifyRun, ErrorCountsMapToCeUe)
{
    sim::RunResult run;
    run.completed = true;
    run.outputMatches = true;
    run.correctedErrors = 12;
    run.uncorrectedErrors = 1;
    const EffectSet set = classifyRun(run);
    EXPECT_TRUE(set.has(Effect::CE));
    EXPECT_TRUE(set.has(Effect::UE));
    EXPECT_EQ(set.count(), 2);
}

TEST(ClassifyRun, SystemCrash)
{
    sim::RunResult run;
    run.systemCrashed = true;
    EXPECT_TRUE(classifyRun(run).has(Effect::SC));
}

TEST(ClassifyRun, CompoundEffects)
{
    // A run can manifest several effects at once (section 3.4.1).
    sim::RunResult run;
    run.completed = true;
    run.outputMatches = false;
    run.correctedErrors = 3;
    const EffectSet set = classifyRun(run);
    EXPECT_TRUE(set.has(Effect::SDC));
    EXPECT_TRUE(set.has(Effect::CE));
}

} // namespace
} // namespace vmargin
