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
 * ThreadPool + parallelMap: a work pool for region- and unit-level
 * fan-out. parallelMap(n, threads, fn) evaluates fn(i) for i in [0, n)
 * and returns the results indexed by i; each index owns its result
 * slot, so scheduling cannot reorder output. With threads <= 1 the
 * calls run inline on the calling thread — that *is* the serial
 * reference path, not an approximation of it.
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
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace delorean::core
{

/**
 * A fixed-size pool of worker threads draining a task queue. Tasks are
 * opaque thunks; batching, result placement and completion tracking are
 * the caller's concern (see parallelMap, which handles all three).
 */
class ThreadPool
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
 * Dynamic (atomic-counter) index distribution over [0, n): each worker
 * claims the next unclaimed index until the range is exhausted. The
 * first exception stops further claims and is rethrown to the caller
 * once every worker has exited (no worker can touch freed captures).
 */
template <typename Fn>
void
runIndexed(ThreadPool &pool, std::size_t n, unsigned workers, Fn &fn)
{
    if (n == 0)
        return;

    std::atomic<std::size_t> next{0};
    std::exception_ptr error;
    std::mutex error_mutex;

    const unsigned launched =
        unsigned(std::min<std::size_t>(std::max(workers, 1u), n));
    std::mutex done_mutex;
    std::condition_variable all_done;
    unsigned running = launched; // guarded by done_mutex

    // The exit decrement happens under done_mutex: the caller cannot
    // observe running == 0 and destroy these stack-locals while a
    // worker still holds (or is about to take) the lock to notify.
    auto body = [&] {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                break;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
                next.store(n, std::memory_order_relaxed);
            }
        }
        std::lock_guard<std::mutex> lock(done_mutex);
        if (--running == 0)
            all_done.notify_all();
    };

    for (unsigned w = 1; w < launched; ++w)
        pool.submit(body);
    body(); // the calling thread participates

    std::unique_lock<std::mutex> lock(done_mutex);
    all_done.wait(lock, [&] { return running == 0; });
    lock.unlock();

    if (error)
        std::rethrow_exception(error);
}

} // namespace detail

/**
 * Evaluate fn(i) for every i in [0, n) on @p pool and return the
 * results as a vector indexed by i. Output is bit-identical to the
 * serial loop `for (i) out[i] = fn(i)` for any pool size.
 */
template <typename Fn>
auto
parallelMap(ThreadPool &pool, std::size_t n, Fn &&fn)
    -> std::vector<std::invoke_result_t<Fn &, std::size_t>>
{
    using R = std::invoke_result_t<Fn &, std::size_t>;
    static_assert(!std::is_same_v<R, bool>,
                  "std::vector<bool> packs slots into shared words; "
                  "concurrent out[i] writes would race. Return a "
                  "char/int instead.");
    std::vector<R> out(n);
    auto slotted = [&](std::size_t i) { out[i] = fn(i); };
    detail::runIndexed(pool, n, pool.size() + 1, slotted);
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
