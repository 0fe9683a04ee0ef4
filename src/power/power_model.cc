#include "power_model.hh"

#include <cmath>

#include "util/logging.hh"

namespace vmargin::power
{

PowerModel::PowerModel(PowerParams params) : params_(params)
{
    if (params_.coreDynPerV2GHz <= 0.0 || params_.coreLeakAt1V < 0.0)
        util::panicf("PowerModel: bad calibration constants");
}

double
PowerModel::leakTempFactor(Celsius temperature) const
{
    return std::exp2((temperature - params_.referenceTemp) /
                     params_.leakTempDoubling);
}

Watt
PowerModel::coreDynamic(const CoreOperatingPoint &op) const
{
    const double volts = static_cast<double>(op.voltage) / 1000.0;
    const double ghz = static_cast<double>(op.frequency) / 1000.0;
    return params_.coreDynPerV2GHz * volts * volts * ghz *
           op.activity;
}

Watt
PowerModel::coreLeakage(const CoreOperatingPoint &op) const
{
    const double volts = static_cast<double>(op.voltage) / 1000.0;
    return params_.coreLeakAt1V * volts * op.leakageFactor *
           leakTempFactor(op.temperature);
}

Watt
PowerModel::corePower(const CoreOperatingPoint &op) const
{
    return coreDynamic(op) + coreLeakage(op);
}

Watt
PowerModel::socPower(MilliVolt soc_voltage, Celsius temperature,
                     double leakage_factor) const
{
    const double v_rel = static_cast<double>(soc_voltage) / 950.0;
    return params_.socDynNominal * v_rel * v_rel +
           params_.socLeakNominal * v_rel * leakage_factor *
               leakTempFactor(temperature);
}

double
relativeDynamicPower(MilliVolt v, MilliVolt v_nominal,
                     double freq_rel)
{
    if (v_nominal <= 0)
        util::panicf("relativeDynamicPower: bad nominal voltage");
    const double v_rel =
        static_cast<double>(v) / static_cast<double>(v_nominal);
    return v_rel * v_rel * freq_rel;
}

double
savingsPercent(double relative)
{
    return 100.0 * (1.0 - relative);
}

} // namespace vmargin::power
