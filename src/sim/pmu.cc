#include "pmu.hh"

#include "util/logging.hh"

namespace vmargin::sim
{

void
Pmu::add(PmuEvent event, uint64_t count)
{
    const auto index = static_cast<size_t>(event);
    if (index >= kNumPmuEvents)
        util::panicf("Pmu::add: invalid event ", index);
    counters_[index] += count;
}

uint64_t
Pmu::value(PmuEvent event) const
{
    const auto index = static_cast<size_t>(event);
    if (index >= kNumPmuEvents)
        util::panicf("Pmu::value: invalid event ", index);
    return counters_[index];
}

void
Pmu::reset()
{
    counters_.fill(0);
}

std::vector<std::string>
Pmu::eventNames()
{
    return {
#define VMARGIN_PMU_NAME(name) #name,
        VMARGIN_PMU_EVENTS(VMARGIN_PMU_NAME)
#undef VMARGIN_PMU_NAME
    };
}

} // namespace vmargin::sim
