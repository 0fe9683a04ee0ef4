/**
 * @file
 * Error-location aggregation (the section 2.2 parser extension:
 * "the parser can also report the exact location that the
 * correctable errors occurred, e.g. the cache level, the memory").
 */

#ifndef VMARGIN_CORE_ERRORSITES_HH
#define VMARGIN_CORE_ERRORSITES_HH

#include <vector>

#include "classifier.hh"

namespace vmargin
{

/** Aggregated CE/UE location distribution. */
struct ErrorSiteBreakdown
{
    sim::SiteCounts corrected;
    sim::SiteCounts uncorrected;
};

/** Sum the per-run location detail of classified runs. */
inline ErrorSiteBreakdown
summarizeErrorSites(const std::vector<ClassifiedRun> &runs)
{
    ErrorSiteBreakdown breakdown;
    for (const auto &run : runs) {
        breakdown.corrected += run.correctedBySite;
        breakdown.uncorrected += run.uncorrectedBySite;
    }
    return breakdown;
}

} // namespace vmargin

#endif // VMARGIN_CORE_ERRORSITES_HH
