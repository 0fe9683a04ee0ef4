#include "effects.hh"

#include <cctype>
#include <utility>

#include "util/logging.hh"

namespace vmargin
{

std::string_view
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
effectFromName(std::string_view name)
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
    std::string text;
    appendTo(text);
    return text;
}

void
EffectSet::appendTo(std::string &out) const
{
    if (normal()) {
        out.append("NO");
        return;
    }
    bool first = true;
    for (Effect e : {Effect::SDC, Effect::CE, Effect::UE, Effect::AC,
                     Effect::SC}) {
        if (!has(e))
            continue;
        if (!std::exchange(first, false))
            out += ',';
        out.append(effectName(e));
    }
}

std::optional<EffectSet>
EffectSet::fromString(std::string_view text)
{
    EffectSet set;
    if (text.empty() || text == "NO")
        return set;
    const auto space = [](char c) {
        return std::isspace(static_cast<unsigned char>(c)) != 0;
    };
    for (;;) {
        const size_t comma = text.find(',');
        std::string_view token = text.substr(0, comma);
        while (!token.empty() && space(token.front()))
            token.remove_prefix(1);
        while (!token.empty() && space(token.back()))
            token.remove_suffix(1);
        const std::optional<Effect> effect = effectFromName(token);
        if (!effect)
            return std::nullopt;
        set.add(*effect);
        if (comma == std::string_view::npos)
            return set;
        text.remove_prefix(comma + 1);
    }
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
