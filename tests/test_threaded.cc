/**
 * @file
 * Tests for the host-parallel execution engine: the thread pool, and
 * the bit-identical equivalence of every parallel path (region fan-out
 * of solo and DSE sessions) with serial execution.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/dse.hh"
#include "core/parallel.hh"
#include "sampling/metrics.hh"
#include "workload/spec_profiles.hh"

namespace
{

using namespace delorean;
using namespace delorean::core;

/**
 * Assert two MethodResults are byte-identical: every statistic, every
 * per-region record, every modeled cost. EXPECT_EQ on doubles is exact
 * (bitwise for non-NaN values) on purpose — the parallel paths promise
 * bit-identical results, not merely close ones.
 */
void
expectIdenticalResults(const sampling::MethodResult &a,
                       const sampling::MethodResult &b)
{
    EXPECT_EQ(a.method, b.method);
    EXPECT_EQ(a.benchmark, b.benchmark);
    ASSERT_EQ(a.regions.size(), b.regions.size());
    for (std::size_t r = 0; r < a.regions.size(); ++r) {
        const auto &x = a.regions[r];
        const auto &y = b.regions[r];
        EXPECT_EQ(x.instructions, y.instructions) << r;
        EXPECT_EQ(x.cycles, y.cycles) << r;
        EXPECT_EQ(x.mem_refs, y.mem_refs) << r;
        EXPECT_EQ(x.classes, y.classes) << r;
        EXPECT_EQ(x.branches, y.branches) << r;
        EXPECT_EQ(x.branch_mispredicts, y.branch_mispredicts) << r;
        EXPECT_EQ(x.icache_misses, y.icache_misses) << r;
        EXPECT_EQ(x.prefetches_issued, y.prefetches_issued) << r;
        EXPECT_EQ(x.prefetches_nullified, y.prefetches_nullified) << r;
    }
    EXPECT_EQ(a.total.cycles, b.total.cycles);
    EXPECT_EQ(a.total.classes, b.total.classes);
    EXPECT_EQ(a.cost.cycles(), b.cost.cycles());
    EXPECT_EQ(a.cost.vffCycles(), b.cost.vffCycles());
    EXPECT_EQ(a.cost.functionalCycles(), b.cost.functionalCycles());
    EXPECT_EQ(a.cost.detailedCycles(), b.cost.detailedCycles());
    EXPECT_EQ(a.cost.trapCycles(), b.cost.trapCycles());
    EXPECT_EQ(a.cost.trapCount(), b.cost.trapCount());
    EXPECT_EQ(a.wall_seconds, b.wall_seconds);
    EXPECT_EQ(a.mips, b.mips);
    EXPECT_EQ(a.reuse_samples, b.reuse_samples);
    EXPECT_EQ(a.traps, b.traps);
    EXPECT_EQ(a.false_positives, b.false_positives);
    EXPECT_EQ(a.keys_by_explorer, b.keys_by_explorer);
    EXPECT_EQ(a.keys_total, b.keys_total);
    EXPECT_EQ(a.keys_explored, b.keys_explored);
    EXPECT_EQ(a.keys_unresolved, b.keys_unresolved);
    EXPECT_EQ(a.avg_explorers, b.avg_explorers);
    // The defaulted operator== is the authoritative relation: it
    // covers every field, including ones added after the itemized
    // expectations above (which exist for failure diagnostics).
    EXPECT_TRUE(a == b);
}

// ------------------------------------------------------------ thread pool

TEST(ThreadPool, RunsEverySubmittedTask)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(4);
        for (int i = 0; i < 100; ++i)
            pool.submit([&] { count.fetch_add(1); });
    } // destructor drains the queue before joining
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DefaultThreadsIsPositive)
{
    EXPECT_GE(ThreadPool::defaultThreads(), 1u);
    EXPECT_GE(resolveThreads(0), 1u);
    EXPECT_EQ(resolveThreads(3), 3u);
}

TEST(ParallelMap, ResultsIndexedByInput)
{
    const auto out = parallelMap(
        std::size_t(1000), 4, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 1000u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ParallelMap, MatchesSerialForEveryThreadCount)
{
    auto fn = [](std::size_t i) {
        // A little arithmetic so tasks take unequal time.
        double acc = 0.0;
        for (std::size_t k = 0; k <= i % 97; ++k)
            acc += double(i + k) * 1.5;
        return acc;
    };
    const auto serial = parallelMap(std::size_t(500), 1, fn);
    for (unsigned threads : {2u, 4u, 8u}) {
        const auto parallel = parallelMap(std::size_t(500), threads, fn);
        EXPECT_EQ(serial, parallel) << threads;
    }
}

TEST(ParallelMap, EmptyRangeAndSingleItem)
{
    const auto none = parallelMap(std::size_t(0), 4,
                                  [](std::size_t) { return 1; });
    EXPECT_TRUE(none.empty());
    const auto one = parallelMap(std::size_t(1), 4,
                                 [](std::size_t i) { return i + 7; });
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], 7u);
}

TEST(ParallelMap, PropagatesFirstException)
{
    EXPECT_THROW(parallelMap(std::size_t(64), 4,
                             [](std::size_t i) {
                                 if (i == 13)
                                     throw std::runtime_error("boom");
                                 return i;
                             }),
                 std::runtime_error);
}

TEST(ParallelMap, SharedPoolAcrossBatches)
{
    ThreadPool pool(3);
    long long total = 0;
    for (int batch = 0; batch < 5; ++batch) {
        const auto out = parallelMap(pool, 100, [&](std::size_t i) {
            return (long long)(i + std::size_t(batch));
        });
        total = std::accumulate(out.begin(), out.end(), total);
    }
    // sum over batches of (0..99 + batch*100)
    EXPECT_EQ(total, 5LL * 4950 + 100LL * (0 + 1 + 2 + 3 + 4));
}

TEST(ParallelMap, SharedPoolCallerWaitsOnlyForItsOwnRange)
{
    // The pool's one worker is busy with another caller's task, so the
    // body this caller queues cannot start: the caller runs its whole
    // range itself and must return without waiting for that body.
    std::mutex mutex;
    std::condition_variable cv;
    bool released = false, timed_out = false;
    auto pool = std::make_unique<ThreadPool>(1);
    pool->submit([&] {
        std::unique_lock<std::mutex> lock(mutex);
        timed_out = !cv.wait_for(lock, std::chrono::seconds(10),
                                 [&] { return released; });
    });
    const auto out =
        parallelMap(*pool, 8, [](std::size_t i) { return int(i) * 2; });
    {
        std::lock_guard<std::mutex> lock(mutex);
        released = true;
    }
    cv.notify_all();
    pool.reset(); // runs the late body, which finds nothing to claim
    EXPECT_FALSE(timed_out);
    EXPECT_EQ(out, (std::vector<int>{0, 2, 4, 6, 8, 10, 12, 14}));
}

// ------------------------------------------------------------ executors

/**
 * An executor whose helpers are threads a test starts by hand: post()
 * only records the offers, and runOffers() hands each to a thread of
 * its own that calls it up to @p budget times.
 */
class HeldOffers final : public Executor
{
  public:
    explicit HeldOffers(unsigned helpers) : helpers_(helpers) {}

    unsigned helpers() const override { return helpers_; }

    void
    post(const RunNext &run_next, unsigned copies) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (unsigned c = 0; c < copies; ++c)
            offers_.push_back(run_next);
    }

    std::size_t
    posted()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return offers_.size();
    }

    /** Run every offer so far on its own thread, each making at most
     *  @p budget calls; @return the calls that ran an index. */
    unsigned
    runOffers(unsigned budget)
    {
        std::vector<RunNext> offers;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            offers.swap(offers_);
        }
        std::atomic<unsigned> ran{0};
        std::vector<std::thread> threads;
        for (const auto &offer : offers)
            threads.emplace_back([&, offer] {
                for (unsigned i = 0; i < budget && offer(); ++i)
                    ran.fetch_add(1);
            });
        for (auto &t : threads)
            t.join();
        return ran.load();
    }

  private:
    const unsigned helpers_;
    std::mutex mutex_;
    std::vector<RunNext> offers_;
};

/** Which thread ran each index of a fan-out. */
struct IndexThreads
{
    std::mutex mutex;
    std::condition_variable changed;
    std::vector<std::thread::id> by_index;

    explicit IndexThreads(std::size_t n) : by_index(n) {}

    void
    record(std::size_t i)
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            by_index[i] = std::this_thread::get_id();
        }
        changed.notify_all();
    }

    /** Distinct threads seen so far (mutex held, or the fan-out
     *  over). */
    std::size_t
    distinct() const
    {
        std::vector<std::thread::id> ids;
        for (const auto id : by_index)
            if (id != std::thread::id() &&
                std::find(ids.begin(), ids.end(), id) == ids.end())
                ids.push_back(id);
        return ids.size();
    }
};

TEST(Executor, IdleHelpersShareTheFanOutAndMatchSerial)
{
    // An idle pool takes the offer at once. Each index waits (10 s
    // guard) until a second thread has run one, so the fan-out cannot
    // finish on the caller alone.
    const std::size_t n = 16;
    const auto serial =
        parallelMap(n, 1, [](std::size_t i) { return int(i * i); });
    ThreadPool pool(3);
    IndexThreads seen(n);
    std::atomic<bool> timed_out{false};
    const auto out = parallelMap(pool, n, [&](std::size_t i) {
        seen.record(i);
        std::unique_lock<std::mutex> lock(seen.mutex);
        if (!seen.changed.wait_for(lock, std::chrono::seconds(10),
                                   [&] { return seen.distinct() > 1; }))
            timed_out = true;
        return int(i * i);
    });
    EXPECT_FALSE(timed_out.load());
    EXPECT_EQ(out, serial);
    EXPECT_GT(seen.distinct(), 1u);
}

TEST(Executor, BusyExecutorLeavesEveryIndexToTheCaller)
{
    // No helper takes the offers before the fan-out ends: the caller
    // runs every index, and the offers run late find nothing to claim
    // and never call fn.
    HeldOffers executor(3);
    std::atomic<unsigned> calls{0};
    const auto caller = std::this_thread::get_id();
    bool off_caller = false;
    const auto out = parallelMap(executor, 8, [&](std::size_t i) {
        calls.fetch_add(1);
        if (std::this_thread::get_id() != caller)
            off_caller = true;
        return int(i) + 1;
    });
    EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
    EXPECT_EQ(executor.posted(), 3u);
    EXPECT_EQ(executor.runOffers(100), 0u);
    EXPECT_EQ(calls.load(), 8u);
    EXPECT_FALSE(off_caller);
}

TEST(Executor, HelperThatStopsBetweenIndicesLeavesTheRestToTheCaller)
{
    // One helper runs a single index and stops claiming, as a drain
    // loop does when a cell is queued. The caller's first index waits
    // (10 s guard) until that helper has stopped, then runs the rest.
    HeldOffers executor(1);
    const std::size_t n = 6;
    IndexThreads seen(n);
    std::atomic<bool> helper_done{false};
    std::atomic<unsigned> helper_ran{0};
    std::thread helper;
    const auto caller = std::this_thread::get_id();
    bool timed_out = false;
    const auto out = parallelMap(executor, n, [&](std::size_t i) {
        if (std::this_thread::get_id() == caller && !helper.joinable()) {
            helper = std::thread([&] {
                helper_ran = executor.runOffers(1);
                {
                    std::lock_guard<std::mutex> lock(seen.mutex);
                    helper_done = true;
                }
                seen.changed.notify_all();
            });
            std::unique_lock<std::mutex> lock(seen.mutex);
            timed_out = !seen.changed.wait_for(
                lock, std::chrono::seconds(10),
                [&] { return helper_done.load(); });
        }
        seen.record(i);
        return int(i) * 3;
    });
    helper.join();
    EXPECT_FALSE(timed_out);
    EXPECT_EQ(out, (std::vector<int>{0, 3, 6, 9, 12, 15}));
    EXPECT_EQ(helper_ran.load(), 1u);
    std::size_t by_caller = 0;
    for (const auto id : seen.by_index)
        by_caller += id == caller;
    EXPECT_EQ(by_caller, n - 1);
}

TEST(Executor, NoHelpersRunsInlineWithoutPosting)
{
    HeldOffers executor(0);
    const auto out =
        parallelMap(executor, 5, [](std::size_t i) { return int(i); });
    EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(executor.posted(), 0u);
}

TEST(RegionParallel, SessionOverAnExecutorMatchesSerial)
{
    // The session's one fan-out path: windows over a caller's executor
    // are bit-identical to the inline feed with no executor.
    auto trace = workload::makeSpecTrace("bzip2");
    DeloreanConfig cfg;
    cfg.schedule.num_regions = 4;
    cfg.schedule.spacing = 500'000;
    cfg.hier.llc.size = 2 * MiB;
    const auto serial = DeloreanMethod::run(*trace, cfg);
    ThreadPool pool(3);
    expectIdenticalResults(serial,
                           DeloreanMethod::run(*trace, cfg, nullptr, &pool));
}

// ------------------------------------------------------- region fan-out

TEST(RegionParallel, MethodBitIdenticalAcrossThreadCounts)
{
    auto trace = workload::makeSpecTrace("bzip2");
    DeloreanConfig cfg;
    cfg.schedule.num_regions = 4;
    cfg.schedule.spacing = 500'000;
    cfg.hier.llc.size = 2 * MiB;

    const auto serial = DeloreanMethod::run(*trace, cfg);
    for (unsigned threads : {2u, 4u}) {
        ThreadPool pool(threads - 1);
        const auto parallel = DeloreanMethod::run(*trace, cfg, nullptr, &pool);
        expectIdenticalResults(serial, parallel);
    }
}

TEST(RegionParallel, DseBitIdenticalAcrossThreadCounts)
{
    auto trace = workload::makeSpecTrace("gamess");
    DeloreanConfig cfg;
    cfg.schedule.num_regions = 3;
    cfg.schedule.spacing = 500'000;
    cfg.hier.llc.size = 2 * MiB;
    const std::vector<std::uint64_t> sizes = {1 * MiB, 2 * MiB, 4 * MiB,
                                              8 * MiB};

    const auto serial = DesignSpaceExplorer::run(*trace, cfg, sizes);
    ThreadPool pool(3);
    const auto parallel = DesignSpaceExplorer::run(*trace, cfg, sizes, &pool);

    ASSERT_EQ(serial.points.size(), parallel.points.size());
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
        EXPECT_EQ(serial.points[i].llc_size, parallel.points[i].llc_size);
        expectIdenticalResults(serial.points[i].result,
                               parallel.points[i].result);
    }
    EXPECT_EQ(serial.cost.total_core_seconds,
              parallel.cost.total_core_seconds);
    EXPECT_EQ(serial.cost.wall_seconds, parallel.cost.wall_seconds);
}

// ------------------------------------------------------- determinism

// The seeding contract (src/base/random.hh): all stochastic behaviour
// flows through Rng instances seeded from configuration and the
// benchmark name only, never from time or global state — so two runs
// with the same inputs are byte-identical, serial or parallel.
TEST(Determinism, RepeatedRunsAreByteIdentical)
{
    auto trace = workload::makeSpecTrace("astar");
    DeloreanConfig cfg;
    cfg.schedule.num_regions = 3;
    cfg.schedule.spacing = 500'000;
    cfg.hier.llc.size = 2 * MiB;

    expectIdenticalResults(DeloreanMethod::run(*trace, cfg),
                           DeloreanMethod::run(*trace, cfg));
}

} // namespace
