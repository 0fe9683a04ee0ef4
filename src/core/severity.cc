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

namespace
{

/** severityOfSet without the weight check, for callers that made it
 *  once for a whole batch. */
double
weightOfSet(const EffectSet &set, const SeverityWeights &weights)
{
    double total = 0.0;
    for (Effect e : {Effect::SDC, Effect::CE, Effect::UE, Effect::AC,
                     Effect::SC})
        if (set.has(e))
            total += weights.weight(e);
    return total;
}

} // namespace

double
severityOfSet(const EffectSet &set, const SeverityWeights &weights)
{
    weights.validate();
    return weightOfSet(set, weights);
}

double
severity(const std::vector<EffectSet> &runs,
         const SeverityWeights &weights)
{
    if (runs.empty())
        util::panicf("severity: needs at least one run (N >= 1)");
    weights.validate();
    double total = 0.0;
    for (const auto &set : runs)
        total += weightOfSet(set, weights);
    return total / static_cast<double>(runs.size());
}

double
maxSeverity(const SeverityWeights &weights)
{
    return weights.sdc + weights.ce + weights.ue + weights.ac +
           weights.sc;
}

} // namespace vmargin
