/**
 * @file
 * Package power model.
 *
 * Dynamic power follows the classic alpha*C*V^2*f law per core, plus
 * corner- and temperature-dependent leakage, plus the PCP/SoC domain
 * (L3, memory controllers, fabric) on its own supply. Constants are
 * calibrated so a fully loaded nominal chip draws ~30 W, inside the
 * X-Gene 2's 35 W TDP, and so the paper's headline relative-savings
 * arithmetic ((915/980)^2 -> 12.8% etc.) falls out directly.
 */

#ifndef VMARGIN_POWER_POWER_MODEL_HH
#define VMARGIN_POWER_POWER_MODEL_HH

#include <vector>

#include "util/types.hh"

namespace vmargin::power
{

/** Model constants; defaults are the X-Gene 2 calibration. */
struct PowerParams
{
    /** Core dynamic power at 1 V, 1 GHz, activity 1 (watts). */
    double coreDynPerV2GHz = 1.85;

    /** Core leakage at 1 V, 43 C, leakage factor 1 (watts). */
    double coreLeakAt1V = 0.35;

    /** SoC dynamic power at its 0.95 V nominal (watts). */
    double socDynNominal = 4.1;

    /** SoC leakage at 0.95 V, 43 C (watts). */
    double socLeakNominal = 0.9;

    /** Leakage doubles roughly every this many degrees C. */
    double leakTempDoubling = 25.0;

    /** Reference temperature for the leakage calibration. */
    Celsius referenceTemp = 43.0;
};

/** Operating conditions of one core. */
struct CoreOperatingPoint
{
    MilliVolt voltage = 980;
    MegaHertz frequency = 2400;
    double activity = 0.6;       ///< switching activity in [0, 1]
    double leakageFactor = 1.0;  ///< silicon leakage multiplier
    Celsius temperature = 43.0;
};

/** The analytical power model. */
class PowerModel
{
  public:
    explicit PowerModel(PowerParams params = {});

    /** Dynamic power of one core. */
    Watt coreDynamic(const CoreOperatingPoint &op) const;

    /** Leakage power of one core. */
    Watt coreLeakage(const CoreOperatingPoint &op) const;

    /** Total power of one core. */
    Watt corePower(const CoreOperatingPoint &op) const;

    /** PCP/SoC domain power at @p soc_voltage. */
    Watt socPower(MilliVolt soc_voltage, Celsius temperature,
                  double leakage_factor) const;

    const PowerParams &params() const { return params_; }

  private:
    double leakTempFactor(Celsius temperature) const;

    PowerParams params_;
};

/**
 * The paper's relative-power arithmetic (Figure 9): power relative
 * to nominal for a voltage scaled to @p v and frequency scaled by
 * @p freq_rel, under the pure V^2 f dynamic model.
 */
double relativeDynamicPower(MilliVolt v, MilliVolt v_nominal,
                            double freq_rel);

/** Savings percentage: 100 * (1 - relative). */
double savingsPercent(double relative);

} // namespace vmargin::power

#endif // VMARGIN_POWER_POWER_MODEL_HH
