/**
 * @file
 * DeloreanSession: the one DeLorean driver.
 *
 * Every DeLorean run goes through a session: DeloreanMethod::run and
 * runGroup, DesignSpaceExplorer::run, checkpoint::recordLivePoints,
 * the service's streams and the fleet workers. A session owns the
 * per-window loop — Scout + Explorer warm-up, then the Analyst pass,
 * then folding the window's CPI into a running confidence interval —
 * and can suspend at any window boundary and resume later, possibly in
 * another process via the DLRNLVP1 live-point format (src/checkpoint/).
 *
 * Policy derived from the config, with no knobs of its own:
 *
 *  - confidence == 0 (exact mode) feeds windows in region order;
 *  - confidence > 0 feeds them in a window_seed-shuffled order and
 *    stops once the relative CI half-width at that confidence reaches
 *    target_error (after min_windows windows, floored at 2). A
 *    target_error of 0 never stops, and the shuffled full replay is
 *    bit-identical to exact mode except for the confidence/ci_error
 *    report fields;
 *  - results always fold the fed windows in ascending region order.
 *
 * A session may carry several configurations over one trace (a
 * co-scheduled batch unit): per window each config's Scout scans on its
 * own (key sets depend on the hierarchy), one ExplorerChain::exploreGroup
 * pass decodes the Explorer windows once for all of them, and the
 * Analyst passes stay per config. With a shared Scout hierarchy (design
 * space exploration, paper §3.3) one Scout and one Explorer chain feed
 * every config's Analyst instead. Either way every config must share
 * the schedule and Explorer geometry, in exact mode with no live-point
 * file.
 *
 * Each feed fans its windows out in one parallelMap call
 * (core/parallel.hh). A caller with threads to lend passes its
 * Executor — BatchRunner::run its unit pool, the batch daemon its idle
 * drain loops — and the windows share that thread budget; with no
 * executor the feed runs inline. Either way the results are
 * bit-identical to the serial feed.
 *
 * The contract that makes streaming trustworthy (pinned by
 * tests/test_session.cc and tests/test_service.cc):
 *
 *  - Feeding windows one at a time, in bulk, or resuming from
 *    serialized warm state all produce *bit-identical* results —
 *    windows are independent, and assembly always folds them in
 *    ascending region order.
 *  - finish() equals DeloreanMethod::run() over the same bytes
 *    (MethodResult::operator==, doubles bitwise).
 *  - In exact mode, partialResult() after k windows equals a fresh
 *    offline run whose schedule was truncated to k regions: nothing a
 *    window computes depends on num_regions, only the report's
 *    windows_total does.
 *
 * Windows only ever read the trace up to regionEnd(r) = spacing*(r+1)
 * — the Scout and Analyst both stop there and every Explorer horizon
 * reaches *backward* from detailedStart(r) — so window r can be fed as
 * soon as spacing*(r+1) instructions of the trace exist. That bound is
 * what the service's TRACE-STREAM ingestion (src/service/stream.hh)
 * builds on, and tests/test_session.cc pins it with a truncated trace.
 */

#ifndef DELOREAN_CORE_SESSION_HH
#define DELOREAN_CORE_SESSION_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/delorean.hh"
#include "sampling/confidence.hh"
#include "sampling/region.hh"

namespace delorean::core
{

/** A running estimate over the windows fed so far. */
struct SessionEstimate
{
    unsigned windows_fed = 0;
    unsigned windows_total = 0;
    double mean_cpi = 0.0;

    /**
     * Relative half-width of the confidence interval over the
     * per-window CPIs, at config.confidence (95% in exact mode); 0
     * until two windows exist. In exact mode purely a report: windows
     * replay in trace order and never stop early, so this tightens
     * monotonically in expectation as data arrives without ever
     * changing the final result.
     */
    double ci_error = 0.0;

    /** Modeled LLC misses per kilo-instruction over the fed windows. */
    double mpki = 0.0;

    /**
     * Running miss-ratio curve: (cache size in bytes, miss ratio)
     * points from a StatStack model over the fed windows' merged
     * vicinity reuse distributions, at llc/4 .. 4*llc — the MRC a
     * STATUS poll publishes alongside the CPI. Empty until a fed
     * window has vicinity samples.
     */
    std::vector<std::pair<std::uint64_t, double>> mrc;
};

/**
 * The resumable window pipeline. Construct from the config(s), feed
 * windows as their trace bytes become available, query the running
 * estimate between feeds, and finish() once done(). Per-config queries
 * take the config's index (@p cell), 0 for a single-config session.
 */
class DeloreanSession
{
  public:
    /** Validates the schedule/hierarchy and the early-stop knobs. */
    explicit DeloreanSession(DeloreanConfig config);

    /**
     * Several configurations sharing one decode (see the file docs).
     * fatal_if they disagree on what shapes the shared passes, or if
     * more than one runs in confidence mode or with a live-point file.
     *
     * @param shared_scout DSE mode: the one Scout's hierarchy — pass
     *        the smallest LLC of a sweep so the key sets stay valid
     *        for every configuration.
     */
    explicit DeloreanSession(
        std::vector<DeloreanConfig> configs,
        std::optional<cache::HierarchyConfig> shared_scout = std::nullopt);

    /**
     * Run Scout + Explorers + Analyst for the next @p n windows of the
     * feed order, reading from @p master via @p checkpoints (which must
     * cover the windows' positions), or fewer if the stop rule fires
     * first. Windows fan out over @p executor's helpers, or run inline
     * when it is null, with bit-identical results.
     * @p master must present the same name() on every feed (the
     * benchmark identity of the session).
     */
    void feedWindows(const workload::TraceSource &master,
                     const sampling::TraceCheckpointer &checkpoints,
                     unsigned n, Executor *executor = nullptr);

    /**
     * Same, but building a checkpoint store internally for just the
     * new windows — the streaming path, where each feed sees a fresh
     * (longer) snapshot of a growing trace. @p master needs only
     * regionEnd(last new window) instructions to exist.
     */
    void feedWindows(const workload::TraceSource &master, unsigned n = 1,
                     Executor *executor = nullptr);

    /**
     * Feed precomputed warm state (live-point resume) for the next
     * warm.size() windows of the feed order: the Scout/Explorer passes
     * are skipped and only the Analysts run, bit-identically to a
     * fresh warm-up of the same windows. Requires a single Scout (one
     * config, or a shared Scout hierarchy).
     */
    void feedWarmWindows(const workload::TraceSource &master,
                         const sampling::TraceCheckpointer &checkpoints,
                         const std::vector<RegionWarm> &warm,
                         Executor *executor = nullptr);

    /**
     * Same, but building the checkpoint store internally for just the
     * resumed windows — the migration path, where a worker loads a
     * live-point prefix and replays it against a snapshot of the
     * still-growing spooled trace.
     */
    void feedWarmWindows(const workload::TraceSource &master,
                         const std::vector<RegionWarm> &warm,
                         Executor *executor = nullptr);

    unsigned windowsFed() const { return unsigned(fed_.size()); }
    unsigned windowsTotal() const { return unsigned(order_.size()); }

    /** Every window fed, or the confidence stop rule fired. */
    bool done() const { return stopped_ || windowsFed() == windowsTotal(); }

    /** Regions in feed order: identity in exact mode, else shuffled. */
    const std::vector<unsigned> &windowOrder() const { return order_; }

    /** The running CPI estimate and its relative CI half-width. */
    SessionEstimate estimate(std::size_t cell = 0) const;

    /**
     * Assemble the windows fed so far into a MethodResult, as if the
     * schedule had ended after them: in exact mode bit-identical to a
     * fresh offline run with num_regions = windowsFed(). Requires at
     * least one fed window.
     */
    sampling::MethodResult partialResult(std::size_t cell = 0) const;

    /**
     * The run's result; requires done(). Bit-identical to
     * DeloreanMethod::run() over the same trace and config.
     */
    sampling::MethodResult finish(std::size_t cell = 0) const;

    /** Benchmark name captured from the first fed trace ("" before). */
    const std::string &benchmark() const { return benchmark_; }

    const DeloreanConfig &config(std::size_t cell = 0) const
    {
        return configs_[cell];
    }

    /**
     * Per-window warm state in feed order: @p cell's Scout, or the
     * shared Scout's (live-point suspend, DSE shared cost).
     */
    std::vector<RegionWarm> warmWindows(std::size_t cell = 0) const;

  private:
    /** One Analyst pass: the region's stats and the pass's cost. */
    struct Analysis
    {
        cpu::RegionStats stats;
        profiling::HostCostAccount cost;
    };

    /** One fed window (fed_[i] covers region order_[i]). */
    struct Window
    {
        std::vector<RegionWarm> warm;     //!< per Scout
        std::vector<Analysis> analysis;   //!< per config
    };

    /**
     * Every Scout over region @p r, then one co-scheduled Explorer
     * pass for all of them: the window's per-Scout warm state.
     */
    std::vector<RegionWarm>
    warmUp(const ExplorerChain &chain,
           const sampling::TraceCheckpointer &checkpoints,
           unsigned r) const;

    /** One Analyst pass of @p cell's config over region @p r. */
    Analysis analyze(std::size_t cell,
                     const sampling::TraceCheckpointer &checkpoints,
                     const RegionWarm &warm, unsigned r) const;

    /** Capture/verify the benchmark identity of @p master. */
    void bindBenchmark(const workload::TraceSource &master);

    /** fatal_if the next @p n windows do not fit the schedule. */
    void checkRoom(unsigned n) const;

    /** A checkpoint store covering just the next @p n windows. */
    sampling::TraceCheckpointer
    checkpointsFor(const workload::TraceSource &master, unsigned n) const;

    /** The shared body of every feed; @p warm null = fresh warm-up. */
    void feed(const workload::TraceSource &master,
              const sampling::TraceCheckpointer &checkpoints, unsigned n,
              const std::vector<RegionWarm> *warm, Executor *executor);

    /** Index of @p cell's Scout in Window::warm. */
    std::size_t scoutOf(std::size_t cell) const
    {
        return shared_scout_ ? 0 : cell;
    }

    sampling::MethodResult assemble(std::size_t cell,
                                    const DeloreanConfig &config,
                                    InstCount covered_insts) const;

    std::vector<DeloreanConfig> configs_;
    std::optional<cache::HierarchyConfig> shared_scout_;
    std::vector<unsigned> order_;           //!< feed order of regions
    std::string benchmark_;
    std::vector<Window> fed_;               //!< feed order
    std::vector<sampling::RunningCI> ci_;   //!< per config, feed order
    double z_ = 0.0;  //!< z at config.confidence (95% in exact mode)
    bool stopped_ = false;
};

} // namespace delorean::core

#endif // DELOREAN_CORE_SESSION_HH
