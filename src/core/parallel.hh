/**
 * @file
 * Host-parallel execution primitives.
 *
 * The paper's passes (Scout, Explorer-1..4, Analyst) are independent
 * across regions and — for design-space exploration — across cache
 * configurations (§3.3: one shared warm-up feeds any number of parallel
 * Analysts). Everything here exploits that independence on the host
 * while preserving a hard guarantee: results are bit-identical to the
 * serial path, regardless of thread count or scheduling order.
 *
 * Executor: where a fan-out finds helper threads. A fan-out offers its
 * indices to at most helpers() threads and runs every index nobody else
 * claimed itself, so it never waits for a helper to become free. Two
 * executors exist: ThreadPool, whose workers take every offer, and the
 * batch daemon's drain loops (service/service.hh), which take one only
 * while no cell is queued. Sharing one executor between cells and the
 * windows of running cells keeps a process inside one thread budget:
 * BatchRunner::run hands its unit pool to each unit's sessions, and the
 * daemon lends its idle drain loops to the cell another loop is running.
 *
 * parallelMap(executor, n, fn) evaluates fn(i) for i in [0, n) and
 * returns the results indexed by i; each index owns its result slot,
 * so scheduling cannot reorder output. parallelMap(n, threads, fn) does
 * the same over a pool of its own. With no helper (threads <= 1, or an
 * executor with helpers() == 0) the calls run inline on the calling
 * thread — that *is* the serial reference path, not an approximation
 * of it.
 *
 * Determinism contract: fn must depend only on its index argument and
 * on state it does not share mutably with other indices. Everything
 * launched through here satisfies that by construction (per-region
 * clones from a const TraceCheckpointer, per-call simulator state).
 */

#ifndef DELOREAN_CORE_PARALLEL_HH
#define DELOREAN_CORE_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace delorean::core
{

/**
 * Helper threads a fan-out may borrow (see the file docs). Helpers
 * take part through a RunNext: each call claims the fan-out's next
 * unclaimed index and runs it, returning false once every index is
 * claimed. That false comes at once and touches nothing the fan-out's
 * caller owns, so a RunNext that reaches a helper after its fan-out
 * returned is harmless.
 */
class Executor
{
  public:
    using RunNext = std::function<bool()>;

    /** The most helpers one fan-out asks for (its caller not counted);
     *  0 runs every fan-out inline. */
    virtual unsigned helpers() const = 0;

    /**
     * Offer @p run_next to at most @p copies helper threads and return
     * at once. A helper calls it until it returns false, or stops
     * between calls; either way the fan-out's caller runs whatever is
     * left.
     */
    virtual void post(const RunNext &run_next, unsigned copies) = 0;

  protected:
    ~Executor() = default;
};

/**
 * A fixed-size pool of worker threads draining a task queue. Tasks are
 * opaque thunks; batching, result placement and completion tracking are
 * the caller's concern (see parallelMap, which handles all three). As
 * an Executor its workers take every offer, in the order posted.
 */
class ThreadPool final : public Executor
{
  public:
    /** @param threads worker count; 0 means defaultThreads(). */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue @p task; it runs on some worker, exactly once. */
    void submit(std::function<void()> task);

    unsigned size() const { return unsigned(workers_.size()); }

    unsigned helpers() const override { return size(); }
    void post(const RunNext &run_next, unsigned copies) override;

    /** Host hardware concurrency, floored at 1. */
    static unsigned defaultThreads();

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable ready_;
    std::deque<std::function<void()>> tasks_;
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

/** @return @p threads with 0 resolved to the host's hardware width. */
unsigned resolveThreads(unsigned threads);

namespace detail
{

/**
 * Dynamic (atomic-counter) index distribution over [0, n): the caller
 * and up to executor.helpers() helpers each claim the next unclaimed
 * index until the range is exhausted. The caller returns once every
 * index has finished, not once every offer has been taken: a helper
 * that comes late (busy with other work, or an executor that lends
 * only idle threads) finds nothing to claim and exits touching only
 * the shared state, never @p fn. The first exception stops further
 * claims and is rethrown to the caller once every claimed index has
 * finished (no running fn can touch freed captures).
 */
template <typename Fn>
void
runIndexed(Executor &executor, std::size_t n, Fn &fn)
{
    const unsigned copies = unsigned(
        std::min<std::size_t>(executor.helpers(), n > 0 ? n - 1 : 0));
    if (copies == 0) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    struct State
    {
        std::atomic<std::size_t> next{0};
        std::mutex mutex;
        std::condition_variable all_done;
        std::size_t finished = 0; //!< indices run or skipped (guarded)
        std::exception_ptr error; //!< the first one (guarded)
    };
    const auto state = std::make_shared<State>();

    // The finished count moves under the mutex: the caller cannot see
    // finished == n and release fn's captures while an index is still
    // running.
    auto run_next = [state, n, &fn]() -> bool {
        const std::size_t i =
            state->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n)
            return false;
        std::exception_ptr error;
        std::size_t skipped = 0;
        try {
            fn(i);
        } catch (...) {
            error = std::current_exception();
            // Stop further claims; the unclaimed rest is finished.
            const std::size_t unclaimed = state->next.exchange(n);
            skipped = unclaimed < n ? n - unclaimed : 0;
        }
        std::lock_guard<std::mutex> lock(state->mutex);
        if (error && !state->error)
            state->error = error;
        state->finished += 1 + skipped;
        if (state->finished == n)
            state->all_done.notify_all();
        return true;
    };

    executor.post(run_next, copies);
    while (run_next()) {
    } // the calling thread participates

    std::unique_lock<std::mutex> lock(state->mutex);
    state->all_done.wait(lock, [&] { return state->finished == n; });
    if (state->error)
        std::rethrow_exception(state->error);
}

} // namespace detail

/**
 * Evaluate fn(i) for every i in [0, n), borrowing helpers from
 * @p executor, and return the results as a vector indexed by i. Output
 * is bit-identical to the serial loop `for (i) out[i] = fn(i)` for any
 * executor.
 */
template <typename Fn>
auto
parallelMap(Executor &executor, std::size_t n, Fn &&fn)
    -> std::vector<std::invoke_result_t<Fn &, std::size_t>>
{
    using R = std::invoke_result_t<Fn &, std::size_t>;
    static_assert(!std::is_same_v<R, bool>,
                  "std::vector<bool> packs slots into shared words; "
                  "concurrent out[i] writes would race. Return a "
                  "char/int instead.");
    std::vector<R> out(n);
    auto slotted = [&](std::size_t i) { out[i] = fn(i); };
    detail::runIndexed(executor, n, slotted);
    return out;
}

/**
 * Convenience overload: run with @p threads workers (0 = hardware,
 * 1 = inline serial execution with no pool or synchronization at all).
 */
template <typename Fn>
auto
parallelMap(std::size_t n, unsigned threads, Fn &&fn)
    -> std::vector<std::invoke_result_t<Fn &, std::size_t>>
{
    using R = std::invoke_result_t<Fn &, std::size_t>;
    threads = resolveThreads(threads);
    if (threads <= 1 || n <= 1) {
        std::vector<R> out;
        out.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            out.push_back(fn(i));
        return out;
    }
    // Caller participates as a worker, and no more workers than items.
    ThreadPool pool(unsigned(
        std::min<std::size_t>(threads - 1, n - 1)));
    return parallelMap(pool, n, std::forward<Fn>(fn));
}

} // namespace delorean::core

#endif // DELOREAN_CORE_PARALLEL_HH
