/**
 * @file
 * The four benchmark workloads and the per-layer probe suite
 * (README.md has the why of each and the metric definitions).
 *
 * Every workload reports the same end-to-end metrics:
 *
 *   setup_s           median of Sizes::setups independent set-ups
 *   sim_minsts_per_s  schedule instructions simulated per host second
 *   light_p50_ms      the workload's frequent request: median ...
 *   light_tail_ms     ... and p90
 *   heavy_p50_ms      the workload's expensive request: median ...
 *   heavy_tail_ms     ... and p90
 *   cpi_err_pct       mean |CPI error| against SMARTS, fixed cell set
 *   max_rss_mb        peak resident memory when the timed phase ends
 */

#ifndef STACKBENCH_SUITE_WORKLOADS_HH
#define STACKBENCH_SUITE_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "suite/spans.hh"
#include "suite/stats.hh"

namespace stackbench
{

/**
 * sweep_cold's profiles, one co-scheduled unit each: mcf has a large
 * working set, gamess a small one.
 */
inline const std::vector<std::string> sweep_profiles{"bzip2", "mcf",
                                                     "gamess"};

/** The recorded traces stream_live alternates between. */
inline const std::vector<std::string> stream_profiles{"bzip2", "mcf"};

/** Input sizes: the defaults are the benchmark, smoke() the toy run. */
struct Sizes
{
    unsigned setups = 3; //!< set-ups per run; setup_s is their median

    // sweep_cold
    std::vector<std::string> sweep_llcs{"2MiB", "4MiB", "8MiB"};
    std::string sweep_schedule = "spacing=1000000 regions=10";

    // submit_mix / fleet_mix
    std::vector<std::string> hot_profiles{"bzip2",      "mcf",
                                          "gamess",     "povray",
                                          "libquantum", "omnetpp"};
    std::vector<std::string> llcs{"1MiB", "2MiB", "4MiB", "8MiB", "16MiB"};
    std::vector<std::string> repls{"lru", "random", "treeplru", "nmru"};
    std::string hot_schedule = "spacing=200000 regions=4";
    unsigned miss_every = 10;   //!< one miss per block of this many
    unsigned checked_cells = 16; //!< seeded result() checks per run

    // stream_live
    std::uint64_t stream_spacing = 200000;
    unsigned stream_windows = 12;

    // probes
    unsigned probe_repeats = 30;

    static Sizes smoke();
};

/** How a benchmark child runs. */
struct Context
{
    Sizes sizes;
    std::uint64_t seed = 1;
    double seconds = 20.0; //!< length of the timed phase
    std::string dir;       //!< scratch directory the child owns
    Spans spans;           //!< enabled for traced runs
};

Outcome runSweepCold(Context &ctx);
Outcome runSubmitMix(Context &ctx);
Outcome runStreamLive(Context &ctx);
Outcome runFleetMix(Context &ctx);

/** The per-layer probes (suite/probes.cc). */
Outcome runProbes(Context &ctx);

/** Names of the end-to-end metrics every workload reports. */
const std::vector<std::string> &endToEndMetrics();

/** Names of the per-layer metrics the probes report. */
const std::vector<std::string> &perLayerMetrics();

// ---- shared by the workloads and the probes --------------------------

/** The hot sweep: hot profiles x llcs x repls (120 cells at full size). */
std::string hotManifest(const Sizes &sizes);

/**
 * The miss pool: one-cell manifests over every profile the hot sweep
 * does not use x the same configs, each pair once. Round r gives
 * profile p the config (p + shift[r]) mod |configs|, so every round
 * holds each profile once and as many distinct configs; the seed
 * permutes the shifts and the order within each round.
 */
std::vector<std::string> missManifests(const Sizes &sizes,
                                       std::uint64_t seed);

/** A sweep_cold manifest: @p profiles x sweep llcs. */
std::string sweepManifest(const Sizes &sizes,
                          const std::vector<std::string> &profiles);

/** The TRACE-STREAM open directives of stream_live. */
std::string streamDirectives(const Sizes &sizes);

} // namespace stackbench

#endif // STACKBENCH_SUITE_WORKLOADS_HH
