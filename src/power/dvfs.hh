/**
 * @file
 * The voltage sweep the campaign layer steps through.
 */

#ifndef VMARGIN_POWER_DVFS_HH
#define VMARGIN_POWER_DVFS_HH

#include <vector>

#include "util/types.hh"

namespace vmargin::power
{

/**
 * Descending list of voltages from @p from down to @p to inclusive
 * (when reachable) in steps of @p step. Panics on a non-positive
 * step or an inverted range.
 */
std::vector<MilliVolt> voltageSweep(MilliVolt from, MilliVolt to,
                                    MilliVolt step);

} // namespace vmargin::power

#endif // VMARGIN_POWER_DVFS_HH
