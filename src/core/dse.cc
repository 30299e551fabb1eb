#include "core/dse.hh"

#include <algorithm>

#include "base/logging.hh"
#include "core/session.hh"

namespace delorean::core
{

DesignSpaceExplorer::Output
DesignSpaceExplorer::run(const workload::TraceSource &master,
                         const DeloreanConfig &base,
                         const std::vector<std::uint64_t> &llc_sizes)
{
    fatal_if(llc_sizes.empty(), "DSE needs at least one LLC size");

    // One session, one warm-up: the Scout's lukewarm filter runs on the
    // smallest configuration so key sets are valid everywhere, and
    // every configuration's Analyst reuses the shared Explorer results.
    std::vector<DeloreanConfig> configs;
    for (const std::uint64_t size : llc_sizes) {
        configs.push_back(base);
        configs.back().hier = base.hier.withLlcSize(size);
    }
    const std::uint64_t min_size =
        *std::min_element(llc_sizes.begin(), llc_sizes.end());
    DeloreanSession session(std::move(configs),
                            base.hier.withLlcSize(min_size));
    session.feedWindows(master, session.windowsTotal());

    const WarmupArtifacts shared =
        DeloreanMethod::assembleArtifacts(base, session.warmWindows());

    Output out;
    out.cost.shared_seconds = shared.cost.seconds();

    const double ghz = base.cost.host_ghz * 1e9;
    double analyst_total = 0.0;
    double detailed_total = 0.0;
    double slowest_per_region = 0.0;

    for (std::size_t i = 0; i < llc_sizes.size(); ++i) {
        DsePoint point;
        point.llc_size = llc_sizes[i];
        point.result = session.finish(i);
        const double analyst_s =
            point.result.cost.seconds() - shared.cost.seconds();
        analyst_total += analyst_s;
        detailed_total += point.result.cost.detailedCycles() / ghz;

        // Parallel Analysts: the per-region wall contribution is the
        // slowest Analyst.
        slowest_per_region =
            std::max(slowest_per_region,
                     analyst_s / double(base.schedule.num_regions));
        out.points.push_back(std::move(point));
    }

    const double k = double(llc_sizes.size());
    out.cost.analyst_seconds = analyst_total / k;
    out.cost.total_core_seconds =
        out.cost.shared_seconds + analyst_total;
    out.cost.marginal_factor =
        out.cost.total_core_seconds /
        (out.cost.shared_seconds + out.cost.analyst_seconds);
    out.cost.warm_to_detailed_ratio =
        detailed_total > 0.0
            ? (out.cost.total_core_seconds - detailed_total) /
                  detailed_total
            : 0.0;

    // Wall clock: shared pipeline followed by the slowest Analyst.
    std::vector<PassCosts> pipeline = shared.passes;
    PassCosts analysts{"analysts(parallel)",
                       std::vector<double>(base.schedule.num_regions,
                                           slowest_per_region)};
    pipeline.push_back(std::move(analysts));
    out.cost.wall_seconds = pipelineWallSeconds(pipeline);

    return out;
}

} // namespace delorean::core
