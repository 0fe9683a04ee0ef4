/**
 * @file
 * Task-to-core allocation (paper section 5).
 *
 * Because every core shares one voltage domain, the chip must run at
 * the voltage demanded by the *worst* (task, core) pairing. Process
 * variation makes that pairing controllable: assigning the most
 * demanding tasks to the most robust cores minimizes the domain
 * voltage and thus maximizes the savings, which is exactly how the
 * paper's predictor "guides task scheduling".
 */

#ifndef VMARGIN_SCHED_ALLOCATOR_HH
#define VMARGIN_SCHED_ALLOCATOR_HH

#include <string>
#include <vector>

#include "core/framework.hh"
#include "core/tradeoff.hh"

namespace vmargin::sched
{

/** Allocation result. */
struct Allocation
{
    std::vector<Placement> placements;
    MilliVolt requiredVoltage = 980; ///< at full speed everywhere
};

/** Vmin-aware task placer. */
class TaskAllocator
{
  public:
    /** @param report characterized chip (source of per-cell Vmin) */
    explicit TaskAllocator(const CharacterizationReport &report);

    /**
     * Place @p workload_ids (at most one per core) so that the
     * required domain voltage is minimized: demanding tasks onto
     * robust cores. Fatal when more tasks than cores are given.
     */
    Allocation allocate(
        const std::vector<std::string> &workload_ids) const;

    /**
     * Naive baseline: tasks placed on cores 0, 1, 2, ... in the
     * order given (what a variation-oblivious scheduler does).
     */
    Allocation allocateNaive(
        const std::vector<std::string> &workload_ids) const;

    /** Required full-speed domain voltage of a given placement. */
    MilliVolt requiredVoltage(
        const std::vector<Placement> &placements) const;

  private:
    const CharacterizationReport &report_;
};

} // namespace vmargin::sched

#endif // VMARGIN_SCHED_ALLOCATOR_HH
