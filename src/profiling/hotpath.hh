/**
 * @file
 * Lightweight hot-path phase timers (measured host wall-clock).
 *
 * Everything else in src/profiling models the *paper's* host; this file
 * measures *ours*. Each expensive phase of a method run — the Scout
 * scan, every Explorer's checkpoint-replay window, the vicinity
 * sampling pass over those windows, the StatStack solver precompute,
 * and the Analyst's detailed simulation — is wrapped in a scoped timer
 * whose nanoseconds land in a PhaseTimings bucket, together with a call
 * count and the number of instructions (or work items) processed, so
 * throughput (insts/s) can be derived per phase.
 *
 * Two rules keep the timers honest and cheap:
 *
 *  - timings are plumbed *by value* through the structs the phases
 *    already produce (KeySet, ExplorerResult, HostCostAccount) and
 *    merged where those structs merge — no global registry, so
 *    concurrent runs (batch cells on a thread pool) can never
 *    mis-attribute each other's time;
 *  - timers wrap whole windows/regions, never single accesses: the
 *    replay inner loop runs batches of thousands of instructions
 *    between clock reads, so measurement overhead is unobservable.
 *
 * Measured wall-clock is inherently nondeterministic, so PhaseTimings
 * deliberately opts out of the bit-identity relation: its operator== is
 * identically true. Structs carrying it keep their *defaulted*
 * operator== meaningful (parallel-vs-serial and cached-vs-direct runs
 * still compare equal bitwise on every modeled statistic), and the
 * batch cache key never sees timings at all — like the threads a run
 * fans out over, they are an artifact of the run, not an input to it
 * (docs/performance.md).
 */

#ifndef DELOREAN_PROFILING_HOTPATH_HH
#define DELOREAN_PROFILING_HOTPATH_HH

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "base/types.hh"

namespace delorean::profiling
{

/** The measured hot-path phases, in pipeline order. */
enum class HotPhase : std::uint8_t
{
    Scout = 0,         //!< Scout::scan (warming replay + region scan)
    ExplorerReplay,    //!< Explorer window re-execution + directed profiling
    Vicinity,          //!< vicinity reuse sampling over the same windows
    StatStackSolve,    //!< StatStack segment precompute (Analyst setup)
    Analyze,           //!< detailed warming + timed simulation
};

constexpr std::size_t hot_phase_count = 5;

/** Stable lower-case identifier ("explorer_replay") for reports. */
const char *hotPhaseName(HotPhase phase);

/** Monotonic clock read in nanoseconds (steady_clock). */
inline double
nowNs()
{
    return double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

/**
 * Measured wall-clock per hot phase plus work counters. Carried beside
 * modeled results; see the file comment for why operator== is
 * identically true.
 */
struct PhaseTimings
{
    /** Wall nanoseconds spent in each phase. */
    std::array<double, hot_phase_count> ns{};

    /** Timer activations per phase (windows, regions, ...). */
    std::array<Counter, hot_phase_count> calls{};

    /** Work items processed per phase (instructions unless noted). */
    std::array<Counter, hot_phase_count> items{};

    void
    note(HotPhase phase, double nanoseconds, Counter work_items = 0)
    {
        const auto p = std::size_t(phase);
        ns[p] += nanoseconds;
        calls[p] += 1;
        items[p] += work_items;
    }

    void
    merge(const PhaseTimings &other)
    {
        for (std::size_t p = 0; p < hot_phase_count; ++p) {
            ns[p] += other.ns[p];
            calls[p] += other.calls[p];
            items[p] += other.items[p];
        }
    }

    double
    totalNs() const
    {
        double t = 0.0;
        for (const double v : ns)
            t += v;
        return t;
    }

    /** Work items per second for @p phase (0 when unmeasured). */
    double itemsPerSecond(HotPhase phase) const;

    /**
     * Identically true: measured time is nondeterministic and must
     * never participate in the bit-identity relation of the structs
     * that carry it (MethodResult, HostCostAccount, ExplorerResult).
     */
    bool
    operator==(const PhaseTimings &) const
    {
        return true;
    }
};

/**
 * RAII phase timer: measures from construction to destruction (or
 * stop()) and notes the elapsed time into a PhaseTimings sink.
 */
class ScopedPhaseTimer
{
  public:
    ScopedPhaseTimer(PhaseTimings &sink, HotPhase phase,
                     Counter work_items = 0)
        : sink_(sink), phase_(phase), items_(work_items), start_(nowNs())
    {}

    ~ScopedPhaseTimer() { stop(); }

    ScopedPhaseTimer(const ScopedPhaseTimer &) = delete;
    ScopedPhaseTimer &operator=(const ScopedPhaseTimer &) = delete;

    /** Add work items discovered while the timer runs. */
    void addItems(Counter n) { items_ += n; }

    /** Note the elapsed time now; the destructor becomes a no-op. */
    void
    stop()
    {
        if (stopped_)
            return;
        stopped_ = true;
        sink_.note(phase_, nowNs() - start_, items_);
    }

  private:
    PhaseTimings &sink_;
    HotPhase phase_;
    Counter items_;
    double start_;
    bool stopped_ = false;
};

} // namespace delorean::profiling

#endif // DELOREAN_PROFILING_HOTPATH_HH
