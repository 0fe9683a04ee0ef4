#include "generator.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace vmargin::wl
{

AddressStream::AddressStream(uint64_t working_set_bytes, double spatial,
                             double temporal, Seed seed)
    : workingSet_(std::max<uint64_t>(working_set_bytes, 4096)),
      hotBytes_(std::max<uint64_t>(workingSet_ / 10, 1024)),
      spatial_(util::Rng::bernoulliThreshold(spatial)),
      temporal_(util::Rng::bernoulliThreshold(temporal)),
      wsLimit_(~0ULL / workingSet_ * workingSet_),
      hotLimit_(~0ULL / hotBytes_ * hotBytes_), rng_(seed)
{
    cursor_ = drawBelow(workingSet_, wsLimit_);
}

ActivityGenerator::ActivityGenerator(const WorkloadProfile &profile,
                                     Seed seed)
    : profile_(profile), seed_(seed)
{
    profile_.validate();
}

EpochActivity
ActivityGenerator::epoch(uint32_t index) const
{
    // Each epoch gets its own stream so epochs can be generated in
    // any order (the campaign replays crashed runs).
    util::Rng rng(util::mixSeed(seed_, 0x45504F43ULL + index));

    // Small multiplicative noise models phase behaviour.
    auto jitter = [&rng](double mean_count, double rel_sigma) {
        const double noisy =
            mean_count * rng.gaussian(1.0, rel_sigma);
        return static_cast<uint64_t>(std::max(0.0, noisy));
    };

    const auto instr =
        static_cast<double>(profile_.kiloInstrPerEpoch) * 1000.0;

    EpochActivity act;
    act.instructions = jitter(instr, 0.002);
    const double fi = static_cast<double>(act.instructions);

    // Cycle count follows from IPC, perturbed a little more: memory
    // phases swing timing harder than the instruction mix.
    const double cycles = fi / profile_.ipcNominal;
    act.cycles = std::max<uint64_t>(jitter(cycles, 0.02), 1);
    act.dispatchStallCycles = std::min<uint64_t>(
        act.cycles,
        jitter(static_cast<double>(act.cycles) *
                   profile_.dispatchStallFrac,
               0.03));

    act.aluOps = jitter(fi * profile_.mix.alu, 0.01);
    act.fpuOps = jitter(fi * profile_.mix.fpu, 0.01);
    act.loads = jitter(fi * profile_.mix.load, 0.01);
    act.stores = jitter(fi * profile_.mix.store, 0.01);
    act.branches = jitter(fi * profile_.mix.branch, 0.01);
    act.branchMispredicts =
        jitter(static_cast<double>(act.branches) *
                   profile_.branchMispredictRate,
               0.05);
    act.btbMisses = jitter(static_cast<double>(act.branches) *
                               profile_.btbMissRate,
                           0.05);
    act.exceptions =
        jitter(fi / 1000.0 * profile_.exceptionsPerKilo, 0.10);
    act.unalignedAccesses =
        jitter(static_cast<double>(act.loads + act.stores) *
                   profile_.unalignedFrac,
               0.10);
    // TLB pressure scales with working set and randomness of access.
    const double tlb_rate =
        profile_.tlbStress * (1.2 - profile_.spatialLocality) * 0.004;
    act.tlbRefills = jitter(
        static_cast<double>(act.loads + act.stores) * tlb_rate, 0.08);
    act.pageWalks = jitter(static_cast<double>(act.tlbRefills) * 0.6,
                           0.08);
    return act;
}

} // namespace vmargin::wl
