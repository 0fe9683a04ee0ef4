/**
 * @file
 * Unit tests for Vmin-aware task allocation.
 */

#include <gtest/gtest.h>

#include "sched/allocator.hh"

namespace vmargin::sched
{
namespace
{

/** Report over @p cores where cell Vmin = core_base + task_shift. */
CharacterizationReport
syntheticReport(const std::vector<MilliVolt> &core_base,
                const std::vector<std::pair<std::string, MilliVolt>>
                    &tasks)
{
    CharacterizationReport report;
    report.chipName = "TTT#1";
    for (size_t c = 0; c < core_base.size(); ++c) {
        for (const auto &[name, shift] : tasks) {
            CellResult cell;
            cell.workloadId = name;
            cell.core = static_cast<CoreId>(c);
            cell.analysis.vmin = core_base[c] + shift;
            report.cells.push_back(cell);
        }
    }
    return report;
}

TEST(Allocator, MapsDemandingTasksToRobustCores)
{
    // Cores 0..3 with bases 890/880/860/870; tasks light(+0) and
    // heavy(+25).
    const auto report = syntheticReport(
        {890, 880, 860, 870},
        {{"light", 0}, {"heavy", 25}});
    const TaskAllocator allocator(report);

    const Allocation best = allocator.allocate({"light", "heavy"});
    ASSERT_EQ(best.placements.size(), 2u);
    // heavy must land on core 2 (most robust).
    for (const auto &p : best.placements) {
        if (p.workloadId == "heavy") {
            EXPECT_EQ(p.core, 2);
        }
    }
    // Required voltage: max(heavy@2 = 885, light@3 = 870) = 885.
    EXPECT_EQ(best.requiredVoltage, 885);
}

TEST(Allocator, BeatsOrMatchesNaivePlacement)
{
    const auto report = syntheticReport(
        {890, 880, 860, 870},
        {{"a", 5}, {"b", 30}, {"c", 15}, {"d", 0}});
    const TaskAllocator allocator(report);
    const auto tasks =
        std::vector<std::string>{"a", "b", "c", "d"};
    const Allocation smart = allocator.allocate(tasks);
    const Allocation naive = allocator.allocateNaive(tasks);
    EXPECT_LE(smart.requiredVoltage, naive.requiredVoltage);
    // With this spread the gap is real: naive puts "b" (+30) on the
    // sensitive core 1 -> 910; smart puts it on core 2 -> 890.
    EXPECT_EQ(naive.requiredVoltage, 910);
    EXPECT_EQ(smart.requiredVoltage, 890);
}

TEST(Allocator, RequiredVoltageSnapsUp)
{
    const auto report =
        syntheticReport({888}, {{"x", 0}});
    const TaskAllocator allocator(report);
    EXPECT_EQ(allocator.requiredVoltage({Placement{"x", 0}}), 890);
}

TEST(Allocator, NaivePlacesInOrder)
{
    const auto report = syntheticReport({880, 880, 880},
                                        {{"a", 0}, {"b", 0}});
    const TaskAllocator allocator(report);
    const Allocation naive = allocator.allocateNaive({"a", "b"});
    EXPECT_EQ(naive.placements[0].core, 0);
    EXPECT_EQ(naive.placements[1].core, 1);
}

TEST(Allocator, FatalOnTooManyTasks)
{
    const auto report = syntheticReport({880}, {{"a", 0}});
    const TaskAllocator allocator(report);
    EXPECT_EXIT(allocator.allocate({"a", "a"}),
                ::testing::ExitedWithCode(1),
                "2 tasks but only 1 eligible cores");
}

TEST(Allocator, FatalOnUnknownWorkload)
{
    const auto report = syntheticReport({880}, {{"a", 0}});
    const TaskAllocator allocator(report);
    EXPECT_EXIT(allocator.allocate({"zzz"}),
                ::testing::ExitedWithCode(1), "not characterized");
}

} // namespace
} // namespace vmargin::sched
