/**
 * @file
 * Per-PMD clock control with the X-Gene 2's skip/division semantics.
 *
 * Each PMD selects its own frequency between 300 MHz and 2.4 GHz in
 * 300 MHz steps. Ratios above 1/2 of the input clock are produced by
 * *clock skipping*, the 1/2 ratio by *clock division*, and lower
 * ratios by combining both (paper section 3.2). Skipped clocks keep
 * the full-speed edge timing, so any frequency above 1.2 GHz stresses
 * timing paths like 2.4 GHz does, while 1.2 GHz and below behave
 * like the divided 1.2 GHz clock. The characterization therefore
 * only distinguishes the two speed classes.
 */

#ifndef VMARGIN_SIM_CLOCK_HH
#define VMARGIN_SIM_CLOCK_HH

#include "param.hh"
#include "util/types.hh"

namespace vmargin::sim
{

/** Timing behaviour class of a clocked PMD (section 3.2). */
enum class SpeedClass
{
    Full, ///< clock skipping: timing margins as at 2.4 GHz
    Half  ///< clock division: timing margins as at 1.2 GHz
};

/** Per-PMD frequency control. */
class ClockController
{
  public:
    /** Starts at the maximum frequency. */
    explicit ClockController(const XGene2Params &params);

    /** Current PMD frequency. */
    MegaHertz frequency() const { return frequency_; }

    /**
     * Request a frequency. Returns false for anything outside
     * [300, 2400] MHz or off the 300 MHz grid.
     */
    bool set(MegaHertz mhz);

    /** True if @p mhz is a legal setpoint. */
    bool legal(MegaHertz mhz) const;

    /** Speed class for the current frequency. */
    SpeedClass speedClass() const { return speedClassOf(frequency_); }

    /** Speed class a given frequency would run in. */
    SpeedClass speedClassOf(MegaHertz mhz) const;

    /** Reset to the maximum frequency. */
    void reset() { frequency_ = params_.maxFrequency; }

  private:
    XGene2Params params_;
    MegaHertz frequency_;
};

} // namespace vmargin::sim

#endif // VMARGIN_SIM_CLOCK_HH
