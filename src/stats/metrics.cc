#include "metrics.hh"

#include <cmath>

#include "util/logging.hh"

namespace vmargin::stats
{

using util::panicf;

double
mean(const Vector &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
variance(const Vector &values)
{
    if (values.size() < 2)
        return 0.0;
    const double mu = mean(values);
    double sum = 0.0;
    for (double v : values)
        sum += (v - mu) * (v - mu);
    return sum / static_cast<double>(values.size());
}

double
stddev(const Vector &values)
{
    return std::sqrt(variance(values));
}

double
r2Score(const Vector &truth, const Vector &predicted)
{
    if (truth.size() != predicted.size() || truth.empty())
        panicf("r2Score: size mismatch ", truth.size(), " vs ",
               predicted.size());
    const double mu = mean(truth);
    double ss_res = 0.0;
    double ss_tot = 0.0;
    for (size_t i = 0; i < truth.size(); ++i) {
        const double res = truth[i] - predicted[i];
        ss_res += res * res;
        ss_tot += (truth[i] - mu) * (truth[i] - mu);
    }
    if (ss_tot == 0.0)
        return ss_res == 0.0 ? 1.0 : 0.0;
    return 1.0 - ss_res / ss_tot;
}

double
rmse(const Vector &truth, const Vector &predicted)
{
    if (truth.size() != predicted.size() || truth.empty())
        panicf("rmse: size mismatch ", truth.size(), " vs ",
               predicted.size());
    double sum = 0.0;
    for (size_t i = 0; i < truth.size(); ++i) {
        const double res = truth[i] - predicted[i];
        sum += res * res;
    }
    return std::sqrt(sum / static_cast<double>(truth.size()));
}

} // namespace vmargin::stats
