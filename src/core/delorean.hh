/**
 * @file
 * The DeLorean facade: directed statistical warming through time
 * traveling, end to end.
 *
 * Orchestrates Scout -> Explorer-1..4 -> Analyst per detailed region,
 * charges each pass's modeled host cost, and reports the pipelined
 * wall-clock speed (Figure 5), collected reuse distances (Figure 6),
 * per-Explorer key breakdown (Figure 7), Explorer engagement (Figure 8),
 * and CPI/MPKI accuracy (Figures 9-14).
 *
 * The per-window loop lives in DeloreanSession (core/session.hh); the
 * entry points here are thin wrappers that feed a session to
 * completion. Reuse distances are microarchitecture independent, so
 * design-space exploration (core/dse.hh) runs one session whose single
 * warm-up feeds any number of Analysts (paper §3.3).
 */

#ifndef DELOREAN_CORE_DELOREAN_HH
#define DELOREAN_CORE_DELOREAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/explorer.hh"
#include "core/key_access.hh"
#include "core/pipeline.hh"
#include "sampling/method.hh"
#include "sampling/results.hh"

namespace delorean::core
{

class Executor; // core/parallel.hh

/** DeLorean-specific knobs on top of the shared MethodConfig. */
struct DeloreanConfig : sampling::MethodConfig
{
    /**
     * Explorer horizons in *paper-scale* instructions (§3.3: 5 M, 50 M,
     * 100 M and 1 B before each detailed region); scaled down by S
     * internally.
     */
    std::vector<InstCount> paper_horizons{5'000'000, 50'000'000,
                                          100'000'000, 1'000'000'000};

    /**
     * Vicinity sampling period in paper-scale memory instructions
     * (§3.3 default: 1 sample per 100 k); scaled by S internally.
     */
    std::uint64_t paper_vicinity_period = 100'000;

    // --- Confidence-driven early stopping -------------------------------
    /**
     * Requested confidence level in percent (e.g. 95, 99.7). 0
     * (default) selects exact mode: every region replayed in order,
     * bit-identical to prior releases. A positive value switches the
     * driver to the SMARTS/live-points regime: regions are replayed in
     * a window_seed-shuffled order while a running confidence interval
     * over per-window CPIs narrows, and the run stops once its
     * relative half-width reaches target_error (after min_windows
     * windows at least).
     */
    double confidence = 0.0;

    /**
     * Relative CPI error bound the confidence interval must reach
     * before stopping (e.g. 0.03 = +-3%). 0 never stops early: the
     * shuffled full replay it produces is pinned bit-identical to
     * exact mode (tests/test_checkpoint.cc).
     */
    double target_error = 0.0;

    /** Seed of the window-order shuffle (configuration-only, per
     *  base/random.hh's seeding contract). */
    std::uint64_t window_seed = 0xde107ea9;

    /** Windows to replay before the stop rule may trigger (floored at
     *  2 — a one-sample variance is undefined). */
    unsigned min_windows = 3;

    /**
     * Optional path to a DLRNLVP1 live-point file recorded for this
     * workload/config (src/checkpoint/). Excluded from the cache key:
     * resuming from valid live-points is bit-identical to a fresh
     * warm-up, so it must not fragment the cache.
     */
    std::string livepoint_file;

    /** Scaled horizons for the current schedule. */
    std::vector<InstCount> scaledHorizons() const;

    /** Scaled vicinity period for the current schedule. */
    std::uint64_t scaledVicinityPeriod() const;
};

/**
 * One region's complete warm state — the Scout's key set plus the
 * Explorer chain's measurements. This is the unit a live-point file
 * persists (src/checkpoint/) and a session resumes from.
 */
struct RegionWarm
{
    KeySet keys;
    ExplorerResult explored;

    bool operator==(const RegionWarm &other) const = default;
};

/**
 * What the warm-up passes (Scout + Explorers) cost and found over a
 * set of windows: per-pass pipeline costs and the aggregated warm-up
 * statistics.
 */
struct WarmupArtifacts
{
    /** Pipeline costs: scout, explorer-1..N. */
    std::vector<PassCosts> passes;

    /** Total modeled cost of the shared passes. */
    profiling::HostCostAccount cost;

    Counter keys_total = 0;
    Counter keys_explored = 0;
    Counter keys_unresolved = 0;
    std::array<Counter, 4> keys_by_explorer{};
    Counter traps = 0;
    Counter false_positives = 0;
    Counter reuse_samples = 0;
    double avg_explorers = 0.0;
};

/** The full DeLorean sampled-simulation method. */
class DeloreanMethod
{
  public:
    /**
     * Run the schedule over a clone of @p master. When @p warm is
     * non-null it must hold one RegionWarm per region (e.g. loaded
     * from a live-point file); the Scout/Explorer passes are skipped
     * and the result is bit-identical to a fresh warm-up. With
     * config.confidence > 0 windows replay in the session's shuffled
     * order until its stop rule fires (see DeloreanConfig). Windows
     * fan out over @p executor when given (DeloreanSession's feeds).
     */
    static sampling::MethodResult
    run(const workload::TraceSource &master, const DeloreanConfig &config,
        const std::vector<RegionWarm> *warm = nullptr,
        Executor *executor = nullptr);

    /**
     * Co-scheduled run of several configurations over one trace: a
     * DeloreanSession carrying all of them, so each window's Explorer
     * reference stream is decoded ONCE for every config. The configs
     * must share the schedule, Explorer geometry (paper_horizons,
     * paper_vicinity_period), exact mode (confidence == 0) and no
     * live-point file — grouping is an
     * execution strategy only, so results (and any caching of them)
     * are bit-identical per config to a solo run(). Windows fan out
     * over @p executor when given.
     */
    static std::vector<sampling::MethodResult>
    runGroup(const workload::TraceSource &master,
             const std::vector<DeloreanConfig> &configs,
             Executor *executor = nullptr);

    /** Checkpoint positions this configuration's passes will need. */
    static std::vector<InstCount>
    checkpointPositions(const DeloreanConfig &config);

    /**
     * Fold per-region Scout/Explorer outputs (ascending region order)
     * into WarmupArtifacts: per-pass pipeline costs and aggregated
     * warm-up statistics.
     */
    static WarmupArtifacts
    assembleArtifacts(const DeloreanConfig &config,
                      const std::vector<RegionWarm> &warm);
};

} // namespace delorean::core

#endif // DELOREAN_CORE_DELOREAN_HH
