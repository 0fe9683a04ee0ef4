/**
 * @file
 * Effect classification (paper Table 3).
 *
 * Every characterization run is classified into the set of abnormal
 * effects it manifested: silent data corruption, corrected errors,
 * uncorrected errors, application crash, system crash — or normal
 * operation when none occurred. A single run can manifest several
 * effects at once (e.g. SDC together with CEs), which is why the
 * classification is a set, not a single label.
 */

#ifndef VMARGIN_CORE_EFFECTS_HH
#define VMARGIN_CORE_EFFECTS_HH

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/core.hh"

namespace vmargin
{

/** Table 3 effect classes. */
enum class Effect : uint8_t
{
    NO,  ///< normal operation: completed, output matches, no errors
    SDC, ///< completed but the output mismatches the golden output
    CE,  ///< hardware corrected errors (EDAC)
    UE,  ///< detected but uncorrected errors (EDAC)
    AC,  ///< application crash (non-zero exit)
    SC   ///< system crash (machine unresponsive / watchdog timeout)
};

/** All classifiable effects, in Table 3 order. */
inline constexpr Effect kAllEffects[] = {Effect::NO,  Effect::SDC,
                                         Effect::CE,  Effect::UE,
                                         Effect::AC,  Effect::SC};

/** Number of distinct EffectSets: every subset of the abnormal
 *  effects (NO is the empty set). */
inline constexpr size_t kEffectSets = size_t{1}
                                      << (std::size(kAllEffects) - 1);

/** Short effect name ("SDC", "CE", ...). */
std::string_view effectName(Effect effect);

/** Table 3 description of the effect. */
std::string effectDescription(Effect effect);

/** Parse a short effect name; nullopt on an unknown one. */
std::optional<Effect> effectFromName(std::string_view name);

/** The set of effects one run manifested. */
class EffectSet
{
  public:
    /** Empty set = normal operation. */
    EffectSet() = default;

    /** Add an effect (NO is represented by the empty set). */
    void add(Effect effect) { bits_ |= bitOf(effect); }

    /** Add every effect of @p other. */
    void merge(EffectSet other) { bits_ |= other.bits_; }

    /** True when @p effect is in the set. */
    bool
    has(Effect effect) const
    {
        if (effect == Effect::NO)
            return normal();
        return (bits_ & bitOf(effect)) != 0;
    }

    /** True when no abnormal effect occurred. */
    bool normal() const { return bits_ == 0; }

    /** The set as a mask below kEffectSets, one bit per abnormal
     *  effect: distinct sets, distinct masks. */
    uint8_t bits() const { return bits_; }

    /** The set whose bits() is @p bits (below kEffectSets). */
    static EffectSet
    fromBits(size_t bits)
    {
        EffectSet set;
        set.bits_ = static_cast<uint8_t>(bits & (kEffectSets - 1));
        return set;
    }

    /** Number of distinct abnormal effects. */
    int count() const;

    /** Comma-separated names, or "NO" when empty. */
    std::string toString() const;

    /** Append toString()'s text to @p out. */
    void appendTo(std::string &out) const;

    /** Parse the toString() format back: names separated by commas,
     *  each with ASCII whitespace around it trimmed; "NO" or empty
     *  text is the empty set. nullopt when a token, empty ones
     *  included, is not an effect name. */
    static std::optional<EffectSet> fromString(std::string_view text);

    /** The set whose toString() is exactly @p text, found in a table
     *  of the kEffectSets spellings; nullopt for any other text
     *  (whitespace, another order, a repeated name, empty text). */
    static std::optional<EffectSet> fromSpelling(std::string_view text);

    bool operator==(const EffectSet &other) const = default;

  private:
    static constexpr uint8_t
    bitOf(Effect effect)
    {
        if (effect == Effect::NO)
            return 0;
        return static_cast<uint8_t>(
            1u << (static_cast<unsigned>(effect) - 1));
    }

    uint8_t bits_ = 0;
};

/**
 * Classify a simulated run exactly the way the framework's parser
 * classifies a real run's logs: SDC from an output mismatch of a
 * completed run, CE/UE from the EDAC counts, AC from the exit code,
 * SC from unresponsiveness.
 */
EffectSet classifyRun(const sim::RunResult &run);

} // namespace vmargin

#endif // VMARGIN_CORE_EFFECTS_HH
