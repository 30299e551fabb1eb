/**
 * @file
 * In-memory spans recorded from the benchmark's side of each layer
 * boundary, exported as Chrome trace-event JSON.
 *
 * A span is {name, start/end ns, span id, parent span id, request id}
 * — the record ROADMAP item 5 plans for the program's own per-process
 * rings, so spans the program records later can join the same file.
 * The benchmark drives every layer from one client thread, so spans
 * nest strictly: a span's parent is the innermost span open when it
 * started, and a layer's self time is its duration minus the time its
 * child spans cover.
 *
 * Recording is off unless enable() is called; a disabled Scope costs
 * one branch. The end-to-end numbers come from untraced runs.
 */

#ifndef STACKBENCH_SUITE_SPANS_HH
#define STACKBENCH_SUITE_SPANS_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace stackbench
{

class Spans
{
  public:
    struct Span
    {
        const char *name = ""; //!< a string literal
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        std::uint32_t id = 0;     //!< 1-based; 0 means "no span"
        std::uint32_t parent = 0; //!< enclosing span's id, 0 at top level
        std::uint64_t request = 0; //!< job/stream/request id, 0 = none
    };

    /** Per-name totals: spans, wall and self nanoseconds. */
    struct Layer
    {
        std::string name;
        std::uint64_t count = 0;
        double total_ns = 0.0;
        double self_ns = 0.0;
    };

    /** RAII span; records nothing while the tracer is disabled. */
    class Scope
    {
      public:
        /** @p request 0 inherits the enclosing span's request id. */
        Scope(Spans &spans, const char *name, std::uint64_t request = 0);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans *spans_ = nullptr; //!< null when not recording
        std::size_t index_ = 0;
    };

    void enable() { enabled_ = true; }
    bool enabled() const { return enabled_; }

    const std::vector<Span> &spans() const { return spans_; }

    /** Per-name self/total times, sorted by self time, descending. */
    std::vector<Layer> layers() const;

    /**
     * Write the spans as comma-separated Chrome "X" (complete) events
     * under process @p pid, with @p label as its process name — a
     * fragment of a traceEvents array, so several processes' spans can
     * be concatenated into one file.
     */
    void writeChromeEvents(std::ostream &os, int pid,
                           const std::string &label) const;

    /** Measured cost of recording one span on this host, in ns. */
    static double nsPerSpan();

  private:
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<std::size_t> open_; //!< indices of open spans, innermost last
};

} // namespace stackbench

#endif // STACKBENCH_SUITE_SPANS_HH
