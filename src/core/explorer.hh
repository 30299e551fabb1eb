/**
 * @file
 * The Explorer passes: "go back in time" (paper §3.2).
 *
 * Explorer-k re-executes a window of H_k instructions ending at the
 * detailed region and measures the last access to each still-unresolved
 * key cacheline. Explorer-1 uses functional simulation (exact, trap-free,
 * atomic-speed); Explorers 2..4 use virtualized directed profiling
 * (native speed + page-granularity watchpoint traps). All Explorers also
 * collect sparse vicinity reuse distances at the same fixed rate.
 * The chain stops as soon as every key is covered.
 */

#ifndef DELOREAN_CORE_EXPLORER_HH
#define DELOREAN_CORE_EXPLORER_HH

#include <array>
#include <unordered_map>
#include <vector>

#include "profiling/directed_profiler.hh"
#include "profiling/hotpath.hh"
#include "profiling/vicinity.hh"
#include "sampling/region.hh"
#include "statmodel/reuse_histogram.hh"

namespace delorean::core
{

/** Explorer chain configuration (scaled units). */
struct ExplorerConfig
{
    /** DP window lengths in instructions, shortest first. */
    std::vector<InstCount> horizons;

    /**
     * Paper-scale window lengths corresponding to @c horizons, used to
     * derive per-window vicinity sampling periods: each window collects
     * the number of vicinity samples its paper-scale counterpart would
     * (paper_window / paper_vicinity_period memory instructions).
     */
    std::vector<InstCount> paper_horizons;

    /** Paper-scale vicinity period (default: 1 per 100 k mem instrs). */
    std::uint64_t paper_vicinity_period = 100'000;

    /** RNG salt for vicinity sampling. */
    std::uint64_t seed = 0xe47;

    /** Vicinity period (memory refs) for Explorer @p k's window. */
    std::uint64_t vicinityPeriod(std::size_t k) const;
};

/** Result of running the chain for one region. */
struct ExplorerResult
{
    /**
     * line -> backward distance in memory references from the line's
     * last warm-up access to the start of the detailed region.
     */
    std::unordered_map<Addr, RefCount> back_distance;

    /** Keys no Explorer could resolve (first-touch / beyond horizon). */
    std::vector<Addr> unresolved;

    /** Keys resolved by each Explorer (Figure 7). */
    std::array<Counter, 4> found_by{};

    /** Explorers engaged for this region (Figure 8). */
    unsigned engaged = 0;

    /** Vicinity reuse distribution gathered across the windows. */
    statmodel::ReuseHistogram vicinity;

    /** Vicinity samples collected (part of the Figure 6 count). */
    Counter vicinity_samples = 0;

    /**
     * Directed-profiling watchpoint stops per Explorer. Key watchpoints
     * stay armed for the whole window, so these counts grow with window
     * length and are charged at paper scale (x S) by the cost model.
     */
    std::array<Counter, 4> dp_traps{};
    std::array<Counter, 4> dp_false_positives{};

    /**
     * Vicinity watchpoint stops per Explorer. Vicinity watchpoints are
     * removed at the first reuse, so their trap counts are
     * workload-intrinsic and are charged unscaled.
     */
    std::array<Counter, 4> vicinity_traps{};
    std::array<Counter, 4> vicinity_false_positives{};

    /** Per-Explorer instructions actually profiled (cost accounting). */
    std::array<InstCount, 4> window_insts{};

    /**
     * Measured wall-clock of the producing Explorer windows
     * (HotPhase::ExplorerReplay: window re-execution + directed
     * profiling, items = instructions; HotPhase::Vicinity: vicinity
     * sampling over the same windows, items = memory references).
     * Excluded from every equality relation (src/profiling/hotpath.hh).
     */
    profiling::PhaseTimings timing;

    Counter
    totalTraps() const
    {
        Counter n = 0;
        for (int k = 0; k < 4; ++k)
            n += dp_traps[std::size_t(k)] +
                 vicinity_traps[std::size_t(k)];
        return n;
    }

    Counter
    totalFalsePositives() const
    {
        Counter n = 0;
        for (int k = 0; k < 4; ++k)
            n += dp_false_positives[std::size_t(k)] +
                 vicinity_false_positives[std::size_t(k)];
        return n;
    }

    /**
     * Exact equality of the measured warm state (timing excluded via
     * PhaseTimings' always-true operator==; back_distance compares
     * order-insensitively as unordered_map does) — the relation
     * live-point round trips preserve (src/checkpoint/).
     */
    bool operator==(const ExplorerResult &other) const = default;
};

/**
 * One batch cell's view of a co-scheduled exploration: the keys its
 * Scout produced, and the per-region Explorer result the chain fills
 * in. See ExplorerChain::exploreGroup.
 */
struct GroupExploreCell
{
    /** Lines needing exploration (this cell's Scout output). */
    std::vector<Addr> keys;

    /** Filled by exploreGroup; independent of the other cells. */
    ExplorerResult result;
};

/**
 * Runs the Explorer chain for one region using checkpointed re-execution.
 */
class ExplorerChain
{
  public:
    ExplorerChain(const ExplorerConfig &config,
                  const sampling::TraceCheckpointer &checkpoints);

    /**
     * Measure key reuse distances for the region whose detailed part
     * starts at @p detailed_start, for one or more cells that share
     * this trace and schedule (a single run is a group of one). Each
     * window's reference stream is decoded ONCE and every chunk fans
     * out to each participating cell's directed profiler. The vicinity
     * sampler is seeded from the trace and window only — identical
     * across cells — so it runs once per window and its output is
     * folded into every participating cell. Each cell's result is
     * bit-identical to exploring its keys alone; only wall-clock
     * attribution differs (the shared decode and vicinity costs are
     * split evenly across the window's participants, so summed timings
     * equal real work).
     *
     * A cell engages Explorer k while it still has unresolved keys; the
     * chain stops once no cell has any.
     */
    void exploreGroup(std::vector<GroupExploreCell> &cells,
                      InstCount detailed_start) const;

    const ExplorerConfig &config() const { return config_; }

  private:
    ExplorerConfig config_;
    const sampling::TraceCheckpointer &checkpoints_;
};

} // namespace delorean::core

#endif // DELOREAN_CORE_EXPLORER_HH
