#include "suite/stats.hh"

#include <algorithm>
#include <cstdio>

namespace stackbench
{

double
Samples::quantile(double q) const
{
    if (values_.empty())
        return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const double pos = std::clamp(q, 0.0, 1.0) * double(sorted.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (pos - double(lo)) * (sorted[hi] - sorted[lo]);
}

double
Samples::mean() const
{
    if (values_.empty())
        return 0.0;
    double sum = 0.0;
    for (const double v : values_)
        sum += v;
    return sum / double(values_.size());
}

void
Outcome::fail(const std::string &what)
{
    ++failed;
    std::fprintf(stderr, "[stackbench] FAILED: %s\n", what.c_str());
}

} // namespace stackbench
