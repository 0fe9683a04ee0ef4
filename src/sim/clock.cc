#include "clock.hh"

namespace vmargin::sim
{

ClockController::ClockController(const XGene2Params &params)
    : params_(params), frequency_(params.maxFrequency)
{
    params_.validate();
}

bool
ClockController::legal(MegaHertz mhz) const
{
    return mhz >= params_.minFrequency && mhz <= params_.maxFrequency &&
           (mhz - params_.minFrequency) % params_.frequencyStep == 0;
}

bool
ClockController::set(MegaHertz mhz)
{
    if (!legal(mhz))
        return false;
    frequency_ = mhz;
    return true;
}

SpeedClass
ClockController::speedClassOf(MegaHertz mhz) const
{
    return mhz > params_.clockDivisionThreshold ? SpeedClass::Full
                                                : SpeedClass::Half;
}

} // namespace vmargin::sim
