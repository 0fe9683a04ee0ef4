#include "dvfs.hh"

#include "util/logging.hh"

namespace vmargin::power
{

std::vector<MilliVolt>
voltageSweep(MilliVolt from, MilliVolt to, MilliVolt step)
{
    if (step <= 0)
        util::panicf("voltageSweep: step must be positive");
    if (from < to)
        util::panicf("voltageSweep: from ", from, " below to ", to);
    std::vector<MilliVolt> sweep;
    for (MilliVolt v = from; v >= to; v -= step)
        sweep.push_back(v);
    return sweep;
}

} // namespace vmargin::power
