#include "effects.hh"

#include "util/logging.hh"
#include "util/strings.hh"

namespace vmargin
{

std::string
effectName(Effect effect)
{
    switch (effect) {
      case Effect::NO:
        return "NO";
      case Effect::SDC:
        return "SDC";
      case Effect::CE:
        return "CE";
      case Effect::UE:
        return "UE";
      case Effect::AC:
        return "AC";
      case Effect::SC:
        return "SC";
    }
    util::panicf("effectName: invalid effect ",
                 static_cast<int>(effect));
}

std::string
effectDescription(Effect effect)
{
    switch (effect) {
      case Effect::NO:
        return "The benchmark was successfully completed without any "
               "indications of failure.";
      case Effect::SDC:
        return "The benchmark was successfully completed, but a "
               "mismatch between the program output and the correct "
               "output was observed.";
      case Effect::CE:
        return "Errors were detected and corrected by the hardware "
               "(provided by Linux EDAC driver).";
      case Effect::UE:
        return "Errors were detected, but not corrected by the "
               "hardware (provided by Linux EDAC driver).";
      case Effect::AC:
        return "The application process was not terminated normally "
               "(the exit value of the process was different than "
               "zero).";
      case Effect::SC:
        return "The system was unresponsive; the machine is not "
               "responding or the timeout limit was reached.";
    }
    util::panicf("effectDescription: invalid effect ",
                 static_cast<int>(effect));
}

std::optional<Effect>
effectFromName(const std::string &name)
{
    for (Effect e : kAllEffects)
        if (effectName(e) == name)
            return e;
    return std::nullopt;
}

namespace
{

uint8_t
bitOf(Effect effect)
{
    if (effect == Effect::NO)
        return 0;
    return static_cast<uint8_t>(1u
                                << (static_cast<unsigned>(effect) - 1));
}

} // namespace

void
EffectSet::add(Effect effect)
{
    bits_ |= bitOf(effect);
}

bool
EffectSet::has(Effect effect) const
{
    if (effect == Effect::NO)
        return normal();
    return (bits_ & bitOf(effect)) != 0;
}

int
EffectSet::count() const
{
    int n = 0;
    for (uint8_t b = bits_; b; b >>= 1)
        n += b & 1;
    return n;
}

std::string
EffectSet::toString() const
{
    if (normal())
        return "NO";
    std::string text;
    for (Effect e : {Effect::SDC, Effect::CE, Effect::UE, Effect::AC,
                     Effect::SC})
        if (has(e))
            text.append(text.empty() ? "" : ",").append(effectName(e));
    return text;
}

std::optional<EffectSet>
EffectSet::fromString(const std::string &text)
{
    EffectSet set;
    if (text.empty() || text == "NO")
        return set;
    for (const auto &token : util::split(text, ',')) {
        const std::optional<Effect> effect =
            effectFromName(util::trim(token));
        if (!effect)
            return std::nullopt;
        set.add(*effect);
    }
    return set;
}

EffectSet
classifyRun(const sim::RunResult &run)
{
    EffectSet set;
    if (run.systemCrashed)
        set.add(Effect::SC);
    if (run.applicationCrashed)
        set.add(Effect::AC);
    if (run.completed && !run.outputMatches)
        set.add(Effect::SDC);
    if (run.correctedErrors > 0)
        set.add(Effect::CE);
    if (run.uncorrectedErrors > 0)
        set.add(Effect::UE);
    return set;
}

} // namespace vmargin
