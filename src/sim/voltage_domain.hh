/**
 * @file
 * Independently regulated supply domains (paper section 2.1).
 *
 * The X-Gene 2 exposes three domains: one PMD domain feeding all
 * eight cores, the PCP/SoC domain (L3, memory controllers, fabric)
 * and the standby domain (SLIMpro/PMpro, never scaled here). The PMD
 * domain regulates in 5 mV steps downward from 980 mV; the SoC
 * domain from 950 mV. The single shared PMD domain is the key
 * constraint the paper's scheduler works around: the domain voltage
 * must satisfy the *weakest* active core.
 */

#ifndef VMARGIN_SIM_VOLTAGE_DOMAIN_HH
#define VMARGIN_SIM_VOLTAGE_DOMAIN_HH

#include <string>

#include "util/types.hh"

namespace vmargin::sim
{

/** One regulated power domain. */
class VoltageDomain
{
  public:
    /**
     * @param name human-readable domain name
     * @param nominal_mv nominal (maximum settable) voltage
     * @param step_mv regulation granularity
     * @param floor_mv lowest voltage the regulator can produce
     */
    VoltageDomain(std::string name, MilliVolt nominal_mv,
                  MilliVolt step_mv, MilliVolt floor_mv);

    /** Current output voltage. */
    MilliVolt voltage() const { return voltage_; }

    /** Nominal voltage. */
    MilliVolt nominal() const { return nominal_; }

    /** Regulation step. */
    MilliVolt step() const { return step_; }

    /** Regulator floor. */
    MilliVolt floor() const { return floor_; }

    /** Domain name. */
    const std::string &name() const { return name_; }

    /**
     * Request an output voltage. Returns false (and leaves the
     * output unchanged) when the request is above nominal, below the
     * regulator floor, or not aligned to the regulation step —
     * mirroring the SLIMpro firmware's rejection of bad setpoints.
     */
    bool set(MilliVolt mv);

    /** Return to the nominal setpoint. */
    void reset() { voltage_ = nominal_; }

    /** Millivolts of undervolt relative to nominal (>= 0). */
    MilliVolt undervolt() const { return nominal_ - voltage_; }

    /** True if @p mv is a legal setpoint for this domain. */
    bool legal(MilliVolt mv) const;

  private:
    std::string name_;
    MilliVolt nominal_;
    MilliVolt step_;
    MilliVolt floor_;
    MilliVolt voltage_;
};

} // namespace vmargin::sim

#endif // VMARGIN_SIM_VOLTAGE_DOMAIN_HH
