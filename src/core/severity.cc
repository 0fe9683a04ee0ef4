#include "severity.hh"

#include "util/logging.hh"

namespace vmargin
{

double
SeverityWeights::weight(Effect effect) const
{
    switch (effect) {
      case Effect::NO:
        return 0.0;
      case Effect::SDC:
        return sdc;
      case Effect::CE:
        return ce;
      case Effect::UE:
        return ue;
      case Effect::AC:
        return ac;
      case Effect::SC:
        return sc;
    }
    util::panicf("SeverityWeights: invalid effect ",
                 static_cast<int>(effect));
}

void
SeverityWeights::validate() const
{
    for (double w : {sdc, ce, ue, ac, sc})
        if (w < 0.0)
            util::panicf("SeverityWeights: negative weight ", w);
}

double
SeverityWeights::runWeight(EffectSet run) const
{
    // S_v is the mean of per-run weights: the run's own weights sum
    // first, then join the voltage's total.
    double sum = 0.0;
    for (Effect e : {Effect::SDC, Effect::CE, Effect::UE, Effect::AC,
                     Effect::SC})
        if (run.has(e))
            sum += weight(e);
    return sum;
}

RunWeightTable::RunWeightTable(const SeverityWeights &weights)
{
    weights.validate();
    for (size_t bits = 0; bits < kEffectSets; ++bits)
        table_[bits] = weights.runWeight(EffectSet::fromBits(bits));
}

double
SeverityTally::severity() const
{
    if (runs_ == 0)
        util::panicf("severity: needs at least one run (N >= 1)");
    return weightSum_ / static_cast<double>(runs_);
}

} // namespace vmargin
