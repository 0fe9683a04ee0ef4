/**
 * @file
 * Regions of operation (paper section 3.1).
 *
 * From the classified runs of one (workload, core) cell — across all
 * campaign repetitions — this module derives the three regions:
 *
 *  Safe  : every run at this voltage completed normally (NO);
 *  Unsafe: some run manifested SDC/CE/UE/AC, but none crashed the
 *          system;
 *  Crash : at least one run at this voltage crashed the system.
 *
 * It also extracts the headline quantities of Figures 3 and 4: the
 * safe Vmin (lowest voltage above which everything is safe) and the
 * highest crash voltage, plus the severity value per voltage level.
 */

#ifndef VMARGIN_CORE_REGIONS_HH
#define VMARGIN_CORE_REGIONS_HH

#include <map>
#include <vector>

#include "classifier.hh"
#include "severity.hh"
#include "util/types.hh"

namespace vmargin
{

/** Operating region of one voltage level. */
enum class Region
{
    Safe,
    Unsafe,
    Crash
};

/** Printable region name. */
std::string regionName(Region region);

/** Region analysis of one (workload, core) cell. */
struct RegionAnalysis
{
    /** Region classification per measured voltage. */
    std::map<MilliVolt, Region> regions;

    /** Severity per measured voltage (paper section 3.4.1). */
    std::map<MilliVolt, double> severityByVoltage;

    /** Safe Vmin: the lowest measured voltage v such that every
     *  measured voltage >= v is Safe. */
    MilliVolt vmin = 0;

    /** Highest voltage at which at least one run crashed the
     *  system; 0 when no crash was observed in the sweep. */
    MilliVolt highestCrashVoltage = 0;

    /** Highest voltage with any abnormal run; 0 if all safe. */
    MilliVolt highestAbnormalVoltage = 0;

    /** True when the sweep reached the crash region. */
    bool sawCrash() const { return highestCrashVoltage != 0; }

    /** Width of the unsafe region in millivolts (0 when the system
     *  goes from safe straight to crash). */
    MilliVolt unsafeWidth() const;

    /** Guardband: nominal minus Vmin. */
    MilliVolt guardband(MilliVolt nominal) const
    {
        return nominal - vmin;
    }

    bool operator==(const RegionAnalysis &other) const = default;
};

/**
 * Analyze the classified runs of one cell. Runs whose key does not
 * match (workload, core) are ignored, so callers can pass a whole
 * campaign result.
 */
RegionAnalysis analyzeRegions(const std::vector<ClassifiedRun> &runs,
                              const std::string &workload_id,
                              CoreId core,
                              const SeverityWeights &weights = {});

} // namespace vmargin

#endif // VMARGIN_CORE_REGIONS_HH
