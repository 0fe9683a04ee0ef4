#include "regions.hh"

#include "ledger_view.hh"
#include "util/logging.hh"

namespace vmargin
{

std::string
regionName(Region region)
{
    switch (region) {
      case Region::Safe:
        return "Safe";
      case Region::Unsafe:
        return "Unsafe";
      case Region::Crash:
        return "Crash";
    }
    util::panicf("regionName: invalid region ",
                 static_cast<int>(region));
}

MilliVolt
RegionAnalysis::unsafeWidth() const
{
    MilliVolt highest_unsafe = 0;
    MilliVolt lowest_unsafe = 0;
    for (const auto &[voltage, region] : regions) {
        if (region != Region::Unsafe)
            continue;
        if (!highest_unsafe || voltage > highest_unsafe)
            highest_unsafe = voltage;
        if (!lowest_unsafe || voltage < lowest_unsafe)
            lowest_unsafe = voltage;
    }
    if (!highest_unsafe)
        return 0;
    // Width spans the unsafe band inclusive of its lowest step.
    return highest_unsafe - lowest_unsafe;
}

RegionAnalysis
analyzeRegions(const std::vector<ClassifiedRun> &runs,
               const std::string &workload_id, CoreId core,
               const SeverityWeights &weights)
{
    // The region/severity math lives in LedgerView::analyze() — the
    // single computation site every consumer (this wrapper, the
    // report rebuild, the severity datasets) reads from. This
    // wrapper adds only the filter-by-cell convenience and the
    // missing-cell panic.
    LedgerView view(weights);
    for (const auto &run : runs) {
        if (run.key.workloadId != workload_id || run.key.core != core)
            continue;
        view.add(run);
    }
    const RegionAnalysis *analysis =
        view.analysis(workload_id, core);
    if (!analysis)
        util::panicf("analyzeRegions: no runs for ", workload_id,
                     " on core ", core);
    return *analysis;
}

} // namespace vmargin
