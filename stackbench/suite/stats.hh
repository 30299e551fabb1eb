/**
 * @file
 * Sample sets, wall-clock helpers and the metric records a benchmark
 * run reports.
 */

#ifndef STACKBENCH_SUITE_STATS_HH
#define STACKBENCH_SUITE_STATS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace stackbench
{

/** Monotonic seconds since an arbitrary epoch (steady_clock). */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** A set of measurements of one quantity. */
class Samples
{
  public:
    void add(double v) { values_.push_back(v); }
    std::size_t size() const { return values_.size(); }
    bool empty() const { return values_.empty(); }

    /**
     * The @p q quantile (0..1) by linear interpolation between order
     * statistics (R type 7). 0 for an empty set.
     */
    double quantile(double q) const;
    double median() const { return quantile(0.5); }
    double mean() const;

  private:
    std::vector<double> values_;
};

/** One reported number: value, unit, and how many samples it summarizes. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::uint64_t n = 0;
};

/**
 * What one benchmark child (a workload or the probe suite) reports:
 * its metrics plus the operations it attempted and how many of them
 * failed (an error reply, a failed job, or an output check mismatch).
 */
struct Outcome
{
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void add(const std::string &name, double value, const std::string &unit,
             std::uint64_t n)
    {
        metrics.push_back({name, value, unit, n});
    }

    /** Count a failed operation; @p what goes to stderr. */
    void fail(const std::string &what);

    /** Count one operation; a false @p ok also fails it with @p what. */
    void check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok)
            fail(what);
    }
};

} // namespace stackbench

#endif // STACKBENCH_SUITE_STATS_HH
