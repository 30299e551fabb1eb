#include "core/delorean.hh"

#include "base/logging.hh"
#include "core/session.hh"

namespace delorean::core
{

std::vector<InstCount>
DeloreanConfig::scaledHorizons() const
{
    // Naively dividing the paper's horizons by S would push Explorer-1
    // below the (unscaled) 30 k detailed-warming window, where it can
    // never resolve anything — every line accessed that recently is
    // still in the lukewarm cache. Horizons are therefore floored at a
    // few multiples of the lukewarm window (the *cost model* still
    // charges the paper-scale window lengths; see assembleArtifacts()).
    const InstCount luke =
        schedule.detailed_warming + schedule.region_len;
    std::vector<InstCount> out;
    out.reserve(paper_horizons.size());
    for (std::size_t k = 0; k < paper_horizons.size(); ++k) {
        const InstCount scaled =
            schedule.scaleInterval(paper_horizons[k]);
        const InstCount floor = luke * (InstCount(4) << (2 * k));
        InstCount h = std::max(scaled, floor);
        // The deepest paper horizon (1 B) equals the region spacing;
        // clamp so no Explorer reaches past the previous region.
        h = std::min<InstCount>(h, schedule.spacing);
        out.push_back(h);
    }
    // Clamping can collapse neighbouring horizons; keep them strictly
    // increasing by dropping duplicates from the tail.
    for (std::size_t k = 1; k < out.size();) {
        if (out[k] <= out[k - 1]) {
            out.erase(out.begin() + long(k));
        } else {
            ++k;
        }
    }
    return out;
}

std::uint64_t
DeloreanConfig::scaledVicinityPeriod() const
{
    return schedule.scaleInterval(paper_vicinity_period);
}

std::vector<InstCount>
DeloreanMethod::checkpointPositions(const DeloreanConfig &config)
{
    return sampling::checkpointPositions(
        config.schedule, config.scaledHorizons(), 0,
        config.schedule.num_regions);
}

WarmupArtifacts
DeloreanMethod::assembleArtifacts(const DeloreanConfig &config,
                                  const std::vector<RegionWarm> &warm)
{
    const auto &sched = config.schedule;
    const auto horizons = config.scaledHorizons();
    const auto cost_params = config.scaledCost();
    const std::size_t n_explorers = horizons.size();

    WarmupArtifacts art;
    art.cost = profiling::HostCostAccount(cost_params);
    art.passes.resize(n_explorers + 1);
    art.passes.front().name = "scout";
    for (std::size_t k = 0; k < n_explorers; ++k)
        art.passes[k + 1].name = "explorer-" + std::to_string(k + 1);

    const InstCount region_total =
        sched.detailed_warming + sched.region_len;
    unsigned engaged_total = 0;

    // Iterate the windows actually present: the full schedule for the
    // exact path, the replayed subset for an early-stopped run.
    const std::size_t n_windows = warm.size();
    for (const auto &[keys, explored] : warm) {
        const auto need = keys.linesNeedingExploration();

        // ---------------- Scout ----------------------------------------
        profiling::HostCostAccount scout_cost(cost_params);
        scout_cost.chargeVffScaled(sched.spacing - region_total);
        scout_cost.chargeAtomicRaw(region_total);
        scout_cost.chargeStateTransfers(2);
        art.passes.front().per_region_seconds.push_back(
            scout_cost.seconds());
        art.cost.merge(scout_cost);

        // ---------------- Explorers ------------------------------------
        for (std::size_t k = 0; k < n_explorers; ++k) {
            profiling::HostCostAccount e_cost(cost_params);
            // Every pass keeps pace with the stream via VFF.
            e_cost.chargeVffScaled(sched.spacing);
            if (k < explored.engaged) {
                if (k == 0) {
                    // Explorer-1 profiles its window functionally
                    // (gem5 atomic); charged at the *paper-scale*
                    // window length (§3.3: 5 M instructions) —
                    // DESIGN.md §5 explains the scaling model.
                    const InstCount paper_h =
                        k < config.paper_horizons.size()
                            ? config.paper_horizons[k]
                            : config.paper_horizons.back();
                    const InstCount paper_window = std::min<InstCount>(
                        paper_h, InstCount(double(sched.spacing) *
                                           cost_params.scale));
                    e_cost.chargeAtomicRaw(paper_window);
                } else {
                    // Virtualized DP runs at native speed; the cost is
                    // the traps. Trap counts are charged unscaled: the
                    // scaled trace compresses both the window length
                    // (fewer accesses) and the structures' footprints
                    // (denser per-page traffic) by the same factor S,
                    // so the product — accesses hitting watched pages —
                    // is already at paper magnitude.
                    e_cost.chargeTraps(explored.dp_traps[k]);
                    e_cost.chargeTraps(explored.vicinity_traps[k]);
                }
                e_cost.chargeStateTransfers(2);
            }
            art.passes[k + 1].per_region_seconds.push_back(
                e_cost.seconds());
            art.cost.merge(e_cost);
        }

        // Measured wall-clock rides along with the modeled cost; the
        // per-region structs carried it out of the (possibly threaded)
        // passes, so attribution is exact under any execution mode.
        art.cost.measured().merge(keys.timing);
        art.cost.measured().merge(explored.timing);

        engaged_total += explored.engaged;
        for (std::size_t k = 0; k < 4 && k < n_explorers; ++k) {
            art.keys_by_explorer[k] += explored.found_by[k];
            art.traps += explored.dp_traps[k] +
                         explored.vicinity_traps[k];
            art.false_positives += explored.dp_false_positives[k] +
                                   explored.vicinity_false_positives[k];
        }
        art.keys_total += keys.uniqueLines();
        art.keys_explored += need.size();
        art.keys_unresolved += explored.unresolved.size();
        art.reuse_samples += explored.back_distance.size() +
                             explored.vicinity_samples;
    }

    art.avg_explorers =
        n_windows == 0 ? 0.0
                       : double(engaged_total) / double(n_windows);
    return art;
}

namespace
{

/**
 * Feed @p session to completion. Confidence mode replays one window at
 * a time so the stop rule cuts the work short; exact mode fans every
 * window out in one feed. @p warm (indexed by region) replaces the
 * Scout/Explorer passes.
 */
void
feedAll(DeloreanSession &session, const workload::TraceSource &master,
        const sampling::TraceCheckpointer &checkpoints,
        const std::vector<RegionWarm> *warm, Executor *executor)
{
    const unsigned step =
        session.config().confidence > 0.0 ? 1 : session.windowsTotal();
    while (!session.done()) {
        if (!warm) {
            session.feedWindows(master, checkpoints, step, executor);
            continue;
        }
        std::vector<RegionWarm> next;
        for (unsigned i = 0; i < step; ++i)
            next.push_back(
                (*warm)[session.windowOrder()[session.windowsFed() + i]]);
        session.feedWarmWindows(master, checkpoints, next, executor);
    }
}

} // namespace

std::vector<sampling::MethodResult>
DeloreanMethod::runGroup(const workload::TraceSource &master,
                         const std::vector<DeloreanConfig> &configs,
                         Executor *executor)
{
    if (configs.empty())
        return {};
    DeloreanSession session(configs);
    sampling::TraceCheckpointer checkpoints(master);
    checkpoints.prepare(checkpointPositions(configs.front()));
    feedAll(session, master, checkpoints, nullptr, executor);

    std::vector<sampling::MethodResult> results;
    for (std::size_t i = 0; i < configs.size(); ++i)
        results.push_back(session.finish(i));
    return results;
}

sampling::MethodResult
DeloreanMethod::run(const workload::TraceSource &master,
                    const DeloreanConfig &config,
                    const std::vector<RegionWarm> *warm,
                    Executor *executor)
{
    fatal_if(warm && warm->size() != config.schedule.num_regions,
             "live-point warm state covers %zu regions, schedule has %u",
             warm->size(), config.schedule.num_regions);
    DeloreanSession session(config);
    sampling::TraceCheckpointer checkpoints(master);
    checkpoints.prepare(checkpointPositions(config));
    feedAll(session, master, checkpoints, warm, executor);
    return session.finish();
}

} // namespace delorean::core
