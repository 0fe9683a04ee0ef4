/**
 * @file
 * The severity function (paper section 3.4.1, second contribution).
 *
 *   S_v = W_SDC*SDC/N + W_CE*CE/N + W_UE*UE/N + W_AC*AC/N + W_SC*SC/N
 *
 * where N is the number of runs at voltage v and each effect term
 * counts *the runs in which the effect appeared* (not the number of
 * error events inside a run). Weights translate behaviours into
 * numbers; Table 4 gives the defaults (SC 16, AC 8, SDC 4, UE 2,
 * CE 1, NO 0) but they are configurable.
 */

#ifndef VMARGIN_CORE_SEVERITY_HH
#define VMARGIN_CORE_SEVERITY_HH

#include <array>
#include <cstdint>

#include "effects.hh"

namespace vmargin
{

/** Effect weights (Table 4 defaults). */
struct SeverityWeights
{
    double sdc = 4.0;
    double ce = 1.0;
    double ue = 2.0;
    double ac = 8.0;
    double sc = 16.0;

    /** Weight of one effect. */
    double weight(Effect effect) const;

    /** Weight of one run: the weights of its effects, summed in
     *  SDC, CE, UE, AC, SC order. The one per-run weight. */
    double runWeight(EffectSet run) const;

    /** All weights must be non-negative; panics otherwise. */
    void validate() const;
};

/**
 * runWeight() of every EffectSet, indexed by EffectSet::bits(), so
 * weighing a run is one load. Each entry is runWeight()'s own
 * result, so a lookup equals the per-run sum bit for bit.
 */
class RunWeightTable
{
  public:
    /** Validates @p weights (panics on a negative one). */
    explicit RunWeightTable(const SeverityWeights &weights = {});

    double operator()(EffectSet run) const { return table_[run.bits()]; }

  private:
    std::array<double, kEffectSets> table_{};
};

/**
 * The runs at one voltage level, tallied for S_v: the run count N,
 * the sum of each run's effect weights and the union of the effects
 * seen. S_v is the mean of the per-run weights, summed run by run in
 * the order the runs are added; a count-based sum (W_e times the
 * runs showing e) would round differently for weights such as 0.1
 * or 1/3, so the order is part of the result.
 */
class SeverityTally
{
  public:
    /** Tally one run's effects, weighed by @p weights. */
    void
    add(EffectSet run, const RunWeightTable &weights)
    {
        weightSum_ += weights(run);
        ++runs_;
        effects_.merge(run);
    }

    /** Union of the effects of every run tallied. */
    EffectSet effects() const { return effects_; }

    /** S_v; panics when no run was tallied (N must be >= 1). */
    double severity() const;

  private:
    uint64_t runs_ = 0;
    double weightSum_ = 0.0;
    EffectSet effects_;
};

} // namespace vmargin

#endif // VMARGIN_CORE_SEVERITY_HH
