/**
 * @file
 * Tests for the host-parallel execution engine: the thread pool, and
 * the bit-identical equivalence of every parallel path (region fan-out
 * of solo and DSE sessions) with serial execution.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>

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

// ------------------------------------------------------- region fan-out

TEST(RegionParallel, MethodBitIdenticalAcrossThreadCounts)
{
    auto trace = workload::makeSpecTrace("bzip2");
    DeloreanConfig cfg;
    cfg.schedule.num_regions = 4;
    cfg.schedule.spacing = 500'000;
    cfg.hier.llc.size = 2 * MiB;

    cfg.host_threads = 1;
    const auto serial = DeloreanMethod::run(*trace, cfg);
    for (unsigned threads : {2u, 4u}) {
        cfg.host_threads = threads;
        const auto parallel = DeloreanMethod::run(*trace, cfg);
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

    cfg.host_threads = 1;
    const auto serial = DesignSpaceExplorer::run(*trace, cfg, sizes);
    cfg.host_threads = 4;
    const auto parallel = DesignSpaceExplorer::run(*trace, cfg, sizes);

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
