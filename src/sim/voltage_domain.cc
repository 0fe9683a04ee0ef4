#include "voltage_domain.hh"

#include "util/logging.hh"

namespace vmargin::sim
{

VoltageDomain::VoltageDomain(std::string name, MilliVolt nominal_mv,
                             MilliVolt step_mv, MilliVolt floor_mv)
    : name_(std::move(name)), nominal_(nominal_mv), step_(step_mv),
      floor_(floor_mv), voltage_(nominal_mv)
{
    if (step_ <= 0)
        util::panicf("VoltageDomain ", name_, ": step must be > 0");
    if (floor_ > nominal_)
        util::panicf("VoltageDomain ", name_,
                     ": floor above nominal");
    if ((nominal_ - floor_) % step_ != 0)
        util::panicf("VoltageDomain ", name_,
                     ": floor not reachable in whole steps");
}

bool
VoltageDomain::legal(MilliVolt mv) const
{
    return mv <= nominal_ && mv >= floor_ &&
           (nominal_ - mv) % step_ == 0;
}

bool
VoltageDomain::set(MilliVolt mv)
{
    if (!legal(mv))
        return false;
    voltage_ = mv;
    return true;
}

} // namespace vmargin::sim
