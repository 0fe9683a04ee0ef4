/**
 * @file
 * Unit tests for the PMU event bank.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "sim/pmu.hh"

namespace vmargin::sim
{
namespace
{

TEST(Pmu, Exactly101Events)
{
    // Paper section 4.1: "The X-Gene 2 provides 101 performance
    // counters in total".
    EXPECT_EQ(kNumPmuEvents, 101u);
    EXPECT_EQ(Pmu::eventNames().size(), 101u);
}

TEST(Pmu, NamesAreUnique)
{
    std::set<std::string> names;
    for (const auto &name : Pmu::eventNames())
        EXPECT_TRUE(names.insert(name).second) << name;
}

TEST(Pmu, PaperSelectedFeaturesExist)
{
    // The five RFE-selected events of section 4.2.
    const std::vector<std::string> names = Pmu::eventNames();
    for (const char *event :
         {"DISPATCH_STALL_CYCLES", "EXC_TAKEN", "MEM_ACCESS_RD",
          "BTB_MIS_PRED", "BR_COND_INDIRECT"})
        EXPECT_NE(std::find(names.begin(), names.end(), event),
                  names.end())
            << event;
}

TEST(Pmu, AddAndRead)
{
    Pmu pmu;
    EXPECT_EQ(pmu.value(PmuEvent::INST_RETIRED), 0u);
    pmu.add(PmuEvent::INST_RETIRED, 10);
    pmu.add(PmuEvent::INST_RETIRED, 5);
    EXPECT_EQ(pmu.value(PmuEvent::INST_RETIRED), 15u);
    EXPECT_EQ(pmu.value(PmuEvent::CPU_CYCLES), 0u);
}

TEST(Pmu, ResetZeroes)
{
    Pmu pmu;
    pmu.add(PmuEvent::BR_MIS_PRED, 3);
    pmu.reset();
    EXPECT_EQ(pmu.value(PmuEvent::BR_MIS_PRED), 0u);
}

TEST(Pmu, SnapshotIsACopy)
{
    Pmu pmu;
    pmu.add(PmuEvent::MEM_ACCESS, 7);
    const PmuSnapshot snap = pmu.snapshot();
    pmu.add(PmuEvent::MEM_ACCESS, 1);
    EXPECT_EQ(snap[static_cast<size_t>(PmuEvent::MEM_ACCESS)], 7u);
}

} // namespace
} // namespace vmargin::sim
