#include "core/session.hh"

#include <algorithm>
#include <functional>
#include <numeric>

#include "base/logging.hh"
#include "base/random.hh"
#include "core/analyst.hh"
#include "core/parallel.hh"
#include "core/scout.hh"
#include "statmodel/assoc_model.hh"
#include "statmodel/statstack.hh"

namespace delorean::core
{

namespace
{

/** Adapter feeding detailed-warming accesses into the stride model. */
class AssocTrainer : public cpu::MemObserver
{
  public:
    explicit AssocTrainer(statmodel::AssocModel &model) : model_(model) {}

    void
    memAccess(Addr pc, Addr line, bool write) override
    {
        (void)write;
        model_.observe(pc, line);
    }

  private:
    statmodel::AssocModel &model_;
};

} // namespace

DeloreanSession::DeloreanSession(DeloreanConfig config)
    : DeloreanSession(std::vector<DeloreanConfig>{std::move(config)})
{}

DeloreanSession::DeloreanSession(
    std::vector<DeloreanConfig> configs,
    std::optional<cache::HierarchyConfig> shared_scout)
    : configs_(std::move(configs)), shared_scout_(std::move(shared_scout))
{
    fatal_if(configs_.empty(), "DeloreanSession needs a configuration");
    const DeloreanConfig &lead = configs_.front();
    for (const auto &c : configs_) {
        c.schedule.validate();
        c.hier.validate();
    }
    if (shared_scout_)
        shared_scout_->validate();

    // Sharing the Scout/Explorer passes is an execution strategy:
    // everything that shapes them must match, and the shared feed
    // runs in the exact (in-order) mode. batch/runner.cc groups cells
    // by the same criteria; this is the backstop for direct API users.
    if (configs_.size() > 1 || shared_scout_) {
        for (const auto &c : configs_) {
            const auto &a = lead.schedule, &b = c.schedule;
            fatal_if(a.num_regions != b.num_regions ||
                         a.spacing != b.spacing ||
                         a.region_len != b.region_len ||
                         a.detailed_warming != b.detailed_warming,
                     "DeloreanSession: configs disagree on the region "
                     "schedule");
            fatal_if(c.paper_horizons != lead.paper_horizons ||
                         c.paper_vicinity_period !=
                             lead.paper_vicinity_period,
                     "DeloreanSession: configs disagree on Explorer "
                     "geometry");
            fatal_if(c.confidence > 0.0 || !c.livepoint_file.empty(),
                     "DeloreanSession: shared passes require exact mode "
                     "without live-points");
        }
    }

    fatal_if(lead.target_error < 0.0,
             "DeloreanConfig::target_error must be >= 0, got %g",
             lead.target_error);
    z_ = sampling::zForConfidence(lead.confidence > 0.0 ? lead.confidence
                                                        : 95.0);

    // Seeded Fisher-Yates shuffle in confidence mode: the window order
    // is a pure function of window_seed, never of time or threads.
    order_.resize(lead.schedule.num_regions);
    std::iota(order_.begin(), order_.end(), 0u);
    if (lead.confidence > 0.0) {
        Rng rng(lead.window_seed);
        for (std::size_t i = order_.size(); i > 1; --i)
            std::swap(order_[i - 1], order_[rng.nextBounded(i)]);
    }
    ci_.resize(configs_.size());
}

void
DeloreanSession::bindBenchmark(const workload::TraceSource &master)
{
    if (benchmark_.empty()) {
        benchmark_ = master.name();
        return;
    }
    fatal_if(master.name() != benchmark_,
             "DeloreanSession bound to benchmark '%s', fed trace '%s'",
             benchmark_.c_str(), master.name().c_str());
}

void
DeloreanSession::checkRoom(unsigned n) const
{
    fatal_if(stopped_,
             "DeloreanSession: feeding windows after the stop rule "
             "fired at %u of %u",
             windowsFed(), windowsTotal());
    fatal_if(windowsFed() + n > windowsTotal(),
             "DeloreanSession: feeding %u windows past the %u-region "
             "schedule (%u already fed)",
             n, windowsTotal(), windowsFed());
}

sampling::TraceCheckpointer
DeloreanSession::checkpointsFor(const workload::TraceSource &master,
                                unsigned n) const
{
    checkRoom(n);
    // Snapshot only the new windows' region range: nothing past its
    // last regionEnd is read, so the master may be a partial prefix of
    // a still-growing trace.
    const auto next = order_.begin() + windowsFed();
    const auto [lo, hi] = std::minmax_element(next, next + n);
    sampling::TraceCheckpointer checkpoints(master);
    checkpoints.prepare(sampling::checkpointPositions(
        configs_.front().schedule, configs_.front().scaledHorizons(), *lo,
        *hi + 1));
    return checkpoints;
}

std::vector<RegionWarm>
DeloreanSession::warmUp(const ExplorerChain &chain,
                        const sampling::TraceCheckpointer &checkpoints,
                        unsigned r) const
{
    const auto &sched = configs_.front().schedule;
    const std::size_t n_scouts = shared_scout_ ? 1 : configs_.size();
    std::vector<RegionWarm> warm(n_scouts);
    std::vector<GroupExploreCell> cells(n_scouts);
    for (std::size_t i = 0; i < n_scouts; ++i) {
        auto scout_trace = checkpoints.at(sched.warmingStart(r));
        warm[i].keys = Scout::scan(
            *scout_trace, shared_scout_ ? *shared_scout_ : configs_[i].hier,
            configs_[i].sim, sched.detailed_warming, sched.region_len);
        cells[i].keys = warm[i].keys.linesNeedingExploration();
    }
    chain.exploreGroup(cells, sched.detailedStart(r));
    for (std::size_t i = 0; i < n_scouts; ++i)
        warm[i].explored = std::move(cells[i].result);
    return warm;
}

DeloreanSession::Analysis
DeloreanSession::analyze(std::size_t cell,
                         const sampling::TraceCheckpointer &checkpoints,
                         const RegionWarm &warm, unsigned r) const
{
    const DeloreanConfig &config = configs_[cell];
    const auto &sched = config.schedule;
    const InstCount region_total =
        sched.detailed_warming + sched.region_len;

    Analysis out;
    out.cost = profiling::HostCostAccount(config.scaledCost());
    auto trace = checkpoints.at(sched.warmingStart(r));

    cache::CacheHierarchy hier(config.hier);
    cpu::DetailedSimulator sim(hier, config.sim);
    statmodel::AssocModel assoc(config.hier.llc.sets(),
                                config.hier.llc.assoc);
    AssocTrainer trainer(assoc);

    double analyze_ns = -profiling::nowNs();
    sim.warmRegion(*trace, sched.detailed_warming, &trainer);
    analyze_ns += profiling::nowNs();

    // The classifier constructor runs the StatStack solver precompute
    // over the region's vicinity distribution; queries during the
    // timed simulation are charged to the Analyze bucket (they are
    // interleaved with it).
    const double solve_t0 = profiling::nowNs();
    AnalystClassifier classifier(warm.keys, warm.explored, hier.llc(),
                                 assoc);
    out.cost.measured().note(profiling::HotPhase::StatStackSolve,
                             profiling::nowNs() - solve_t0,
                             Counter(warm.explored.vicinity_samples));

    analyze_ns -= profiling::nowNs();
    out.stats = sim.simulate(*trace, sched.region_len, &classifier);
    analyze_ns += profiling::nowNs();
    out.cost.measured().note(profiling::HotPhase::Analyze, analyze_ns,
                             region_total);

    out.cost.chargeVffScaled(sched.spacing - region_total);
    out.cost.chargeDetailedRaw(region_total);
    out.cost.chargeStateTransfers(2);
    return out;
}

void
DeloreanSession::feed(const workload::TraceSource &master,
                      const sampling::TraceCheckpointer &checkpoints,
                      unsigned n, const std::vector<RegionWarm> *warm,
                      Executor *executor)
{
    if (n == 0)
        return;
    bindBenchmark(master);
    checkRoom(n);
    fatal_if(warm && configs_.size() > 1 && !shared_scout_,
             "DeloreanSession: warm state feeds need a single Scout");

    // Chain geometry is a pure function of the config and the
    // benchmark name, so rebuilding it per feed changes nothing.
    const DeloreanConfig &lead = configs_.front();
    ExplorerChain chain({lead.scaledHorizons(), lead.paper_horizons,
                         lead.paper_vicinity_period,
                         std::hash<std::string>{}(master.name())},
                        checkpoints);

    // Windows are independent: each fuses its warm-up and Analyst
    // passes into one unit, and parallelMap folds by index, so results
    // stay bit-identical under any executor, or none.
    const unsigned first = windowsFed();
    const auto window = [&](std::size_t i) {
        const unsigned r = order_[first + i];
        Window w;
        w.warm = warm ? std::vector<RegionWarm>{(*warm)[i]}
                      : warmUp(chain, checkpoints, r);
        for (std::size_t c = 0; c < configs_.size(); ++c)
            w.analysis.push_back(
                analyze(c, checkpoints, w.warm[scoutOf(c)], r));
        return w;
    };
    auto windows = executor ? parallelMap(*executor, n, window)
                            : parallelMap(n, 1, window);

    // Fold in feed order; the stop rule may discard the batch's tail.
    const std::uint64_t need =
        std::max<std::uint64_t>(2, lead.min_windows);
    for (auto &w : windows) {
        if (stopped_)
            break;
        for (std::size_t c = 0; c < configs_.size(); ++c)
            ci_[c].add(w.analysis[c].stats.cpi());
        fed_.push_back(std::move(w));
        stopped_ = lead.confidence > 0.0 && lead.target_error > 0.0 &&
                   ci_.front().count() >= need &&
                   ci_.front().relativeHalfWidth(z_) <= lead.target_error;
    }
}

void
DeloreanSession::feedWindows(const workload::TraceSource &master,
                             const sampling::TraceCheckpointer &checkpoints,
                             unsigned n, Executor *executor)
{
    feed(master, checkpoints, n, nullptr, executor);
}

void
DeloreanSession::feedWindows(const workload::TraceSource &master,
                             unsigned n, Executor *executor)
{
    if (n != 0)
        feed(master, checkpointsFor(master, n), n, nullptr, executor);
}

void
DeloreanSession::feedWarmWindows(
    const workload::TraceSource &master,
    const sampling::TraceCheckpointer &checkpoints,
    const std::vector<RegionWarm> &warm, Executor *executor)
{
    feed(master, checkpoints, unsigned(warm.size()), &warm, executor);
}

void
DeloreanSession::feedWarmWindows(const workload::TraceSource &master,
                                 const std::vector<RegionWarm> &warm,
                                 Executor *executor)
{
    const unsigned n = unsigned(warm.size());
    if (n != 0)
        feed(master, checkpointsFor(master, n), n, &warm, executor);
}

std::vector<RegionWarm>
DeloreanSession::warmWindows(std::size_t cell) const
{
    std::vector<RegionWarm> warm;
    warm.reserve(fed_.size());
    for (const auto &w : fed_)
        warm.push_back(w.warm[scoutOf(cell)]);
    return warm;
}

SessionEstimate
DeloreanSession::estimate(std::size_t cell) const
{
    const sampling::RunningCI &ci = ci_[cell];
    SessionEstimate est;
    est.windows_fed = windowsFed();
    est.windows_total = windowsTotal();
    est.mean_cpi = ci.count() > 0 ? ci.mean() : 0.0;
    est.ci_error = ci.relativeHalfWidth(z_);

    InstCount instructions = 0;
    Counter llc_misses = 0;
    for (const auto &w : fed_) {
        instructions += w.analysis[cell].stats.instructions;
        llc_misses += w.analysis[cell].stats.llcMisses();
    }
    est.mpki = instructions > 0
                   ? 1000.0 * double(llc_misses) / double(instructions)
                   : 0.0;

    // The MRC rides the same per-window vicinity distributions the
    // Analyst's capacity classifier uses: merge them and read the
    // StatStack miss ratio at a spread of cache sizes around the
    // configured LLC.
    statmodel::ReuseHistogram merged;
    for (const auto &w : fed_)
        merged.merge(w.warm[scoutOf(cell)].explored.vicinity);
    if (!merged.empty()) {
        const statmodel::StatStack stack(merged);
        const std::uint64_t llc_size = configs_[cell].hier.llc.size;
        for (const std::uint64_t size :
             {llc_size / 4, llc_size / 2, llc_size, 2 * llc_size,
              4 * llc_size}) {
            if (size < line_size)
                continue;
            est.mrc.emplace_back(size,
                                 stack.missRatio(size / line_size));
        }
    }
    return est;
}

sampling::MethodResult
DeloreanSession::assemble(std::size_t cell, const DeloreanConfig &config,
                          InstCount covered_insts) const
{
    // Fold in ascending region order whatever the feed order was: the
    // exact path's folding order, which makes every feed order and
    // every resume bit-identical.
    std::vector<std::size_t> by_region(fed_.size());
    std::iota(by_region.begin(), by_region.end(), std::size_t(0));
    std::sort(by_region.begin(), by_region.end(),
              [&](std::size_t a, std::size_t b) {
                  return order_[a] < order_[b];
              });

    std::vector<RegionWarm> warm;
    for (const std::size_t i : by_region)
        warm.push_back(fed_[i].warm[scoutOf(cell)]);
    const WarmupArtifacts artifacts =
        DeloreanMethod::assembleArtifacts(config, warm);

    const auto &sched = config.schedule;
    sampling::MethodResult result;
    result.method = "DeLorean";
    result.benchmark = benchmark_;
    result.cost = profiling::HostCostAccount(config.scaledCost());
    result.cost.merge(artifacts.cost);

    PassCosts analyst_pass;
    analyst_pass.name = "analyst";
    for (const std::size_t i : by_region) {
        const Analysis &a = fed_[i].analysis[cell];
        analyst_pass.per_region_seconds.push_back(a.cost.seconds());
        result.cost.merge(a.cost);
        result.addRegion(a.stats);
    }

    // Shared warm-up statistics surface in every analyzed result.
    result.reuse_samples = artifacts.reuse_samples;
    result.traps = artifacts.traps;
    result.false_positives = artifacts.false_positives;
    result.keys_by_explorer = artifacts.keys_by_explorer;
    result.keys_total = artifacts.keys_total;
    result.keys_explored = artifacts.keys_explored;
    result.keys_unresolved = artifacts.keys_unresolved;
    result.avg_explorers = artifacts.avg_explorers;
    result.windows_total = sched.num_regions;
    result.windows_replayed = fed_.size();

    std::vector<PassCosts> pipeline = artifacts.passes;
    pipeline.push_back(std::move(analyst_pass));
    result.wall_seconds = pipelineWallSeconds(pipeline);
    result.mips = profiling::modeledMips(covered_insts,
                                         sched.scaleFactor(),
                                         result.wall_seconds);
    return result;
}

sampling::MethodResult
DeloreanSession::partialResult(std::size_t cell) const
{
    fatal_if(windowsFed() == 0,
             "DeloreanSession::partialResult before any fed window");
    // Per-window outputs never depend on num_regions, so assembling
    // under a schedule truncated to the fed windows reproduces a
    // fresh offline run of that shorter schedule bit for bit.
    DeloreanConfig truncated = configs_[cell];
    truncated.schedule.num_regions = windowsFed();
    return assemble(cell, truncated,
                    truncated.schedule.totalInstructions());
}

sampling::MethodResult
DeloreanSession::finish(std::size_t cell) const
{
    fatal_if(!done(), "DeloreanSession::finish with %u of %u windows fed",
             windowsFed(), windowsTotal());
    const DeloreanConfig &config = configs_[cell];
    sampling::MethodResult result = assemble(
        cell, config, config.schedule.spacing * InstCount(windowsFed()));
    if (config.confidence > 0.0) {
        result.confidence = config.confidence;
        result.ci_error = ci_[cell].relativeHalfWidth(z_);
    }
    return result;
}

} // namespace delorean::core
