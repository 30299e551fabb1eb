/**
 * @file
 * Design space exploration with amortized warm-up (paper §3.3/§6.4.2).
 *
 * Reuse distance is microarchitecture-independent, so a single Scout and
 * a single set of Explorers can feed many parallel Analysts, each
 * simulating a different cache configuration: one DeloreanSession with
 * a shared Scout hierarchy (core/session.hh). Warm-up cost is paid
 * once; the marginal cost of an extra configuration is one Analyst
 * pass (paper: < 1.05x total resources for 10 parallel Analysts).
 */

#ifndef DELOREAN_CORE_DSE_HH
#define DELOREAN_CORE_DSE_HH

#include <vector>

#include "core/delorean.hh"

namespace delorean::core
{

/** One evaluated configuration. */
struct DsePoint
{
    std::uint64_t llc_size = 0;
    sampling::MethodResult result;
};

/** Cost summary of the amortized run. */
struct DseCostSummary
{
    /** Total modeled core-seconds across shared passes + all Analysts. */
    double total_core_seconds = 0.0;

    /** Core-seconds of shared warm-up passes (Scout + Explorers). */
    double shared_seconds = 0.0;

    /** Core-seconds of one Analyst pass (average). */
    double analyst_seconds = 0.0;

    /** total(K analysts) / total(1 analyst) — the marginal factor. */
    double marginal_factor = 0.0;

    /** Warm-up cost / detailed-simulation cost (~235x in the paper). */
    double warm_to_detailed_ratio = 0.0;

    /** Pipelined wall-clock with all Analysts in parallel. */
    double wall_seconds = 0.0;
};

/** Amortized multi-configuration evaluation. */
class DesignSpaceExplorer
{
  public:
    struct Output
    {
        std::vector<DsePoint> points;
        DseCostSummary cost;
    };

    /**
     * Evaluate @p llc_sizes with one shared warm-up.
     *
     * @param base configuration whose LLC size is overridden per point;
     *        the Scout's lukewarm filter uses the smallest LLC so key
     *        sets are valid for every configuration.
     */
    static Output run(const workload::TraceSource &master,
                      const DeloreanConfig &base,
                      const std::vector<std::uint64_t> &llc_sizes);
};

} // namespace delorean::core

#endif // DELOREAN_CORE_DSE_HH
