/**
 * @file
 * Figure 14 + §6.4.2: CPI as a function of LLC size for cactusADM,
 * leslie3d and lbm, with all DeLorean points produced from ONE shared
 * warm-up (a single Scout + Explorer set feeding 10 parallel
 * Analysts). Also reports the amortization economics the paper quotes:
 * warm-up : detailed-simulation cost ~235x, marginal cost < 1.05x for
 * 10 parallel Analysts.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "common.hh"
#include "core/dse.hh"
#include "core/parallel.hh"
#include "statmodel/working_set.hh"

namespace
{

/** Same DsePoints from the serial and parallel executors, or abort. */
void
checkIdentical(const delorean::core::DesignSpaceExplorer::Output &serial,
               const delorean::core::DesignSpaceExplorer::Output &parallel)
{
    bool ok = serial.points.size() == parallel.points.size();
    for (std::size_t i = 0; ok && i < serial.points.size(); ++i) {
        // MethodResult::operator== is defaulted: every statistic,
        // per-region record and cost bucket, doubles compared exactly.
        ok = serial.points[i].llc_size == parallel.points[i].llc_size &&
             serial.points[i].result == parallel.points[i].result;
    }
    if (!ok) {
        std::fprintf(stderr,
                     "[fig14] FATAL: parallel sweep diverged from the "
                     "serial sweep\n");
        std::exit(1);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace delorean;
    using Clock = std::chrono::steady_clock;
    auto opt = bench::Options::parse(argc, argv);
    if (opt.spacing == 5'000'000)
        opt.spacing = 25'000'000;
    if (opt.benchmarks.empty())
        opt.benchmarks = {"cactusADM", "leslie3d", "lbm"};

    const auto sizes = statmodel::paperLlcSizes();
    const unsigned n_threads = core::ThreadPool::defaultThreads();
    // One Analyst per host thread: n_threads - 1 pool workers plus the
    // calling thread.
    std::unique_ptr<core::ThreadPool> pool;
    if (n_threads > 1)
        pool = std::make_unique<core::ThreadPool>(n_threads - 1);

    bench::printHeading(
        "Design-space exploration: CPI vs LLC size from one warm-up",
        "Figure 14");

    for (const auto &name : opt.benchmarkList()) {
        std::fprintf(stderr, "[fig14] %s...\n", name.c_str());
        bench::guarded(name, [&] {
        auto trace = bench::makeTraceOrDie(name);
        auto cfg = opt.config(1 * MiB);

        // The reference curve is memoized in the persistent result
        // cache; the DSE sweeps below stay live on purpose — this
        // figure *measures* their serial-vs-parallel wall-clock.
        const auto ref = bench::cachedMultiSizeReference(
            name, *trace, cfg.schedule, cfg.hier, sizes, cfg.sim,
            opt.use_cache);

        // The same sweep serially and with one Analyst per host
        // thread: identical points, different wall-clock.
        const auto t0 = Clock::now();
        const auto dse =
            core::DesignSpaceExplorer::run(*trace, cfg, sizes);
        const auto t1 = Clock::now();
        const auto dse_mt =
            core::DesignSpaceExplorer::run(*trace, cfg, sizes, pool.get());
        const auto t2 = Clock::now();
        checkIdentical(dse, dse_mt);

        const double serial_s =
            std::chrono::duration<double>(t1 - t0).count();
        const double parallel_s =
            std::chrono::duration<double>(t2 - t1).count();

        std::printf("\n%s (CPI)\n", name.c_str());
        std::printf("%10s %12s %12s %9s\n", "size", "SMARTS",
                    "DeLorean", "err%");
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            std::printf("%10s %12.3f %12.3f %9.1f\n",
                        bench::mib(sizes[i]).c_str(), ref.cpi[i],
                        dse.points[i].result.cpi(),
                        sampling::relativeErrorPct(
                            ref.cpi[i], dse.points[i].result.cpi()));
        }
        std::printf("amortization: warm/detailed = %.0fx "
                    "(paper: ~235x), marginal cost for %zu Analysts = "
                    "%.3fx (paper: <1.05x for 10), wall %.1fs\n",
                    dse.cost.warm_to_detailed_ratio, sizes.size(),
                    dse.cost.marginal_factor, dse.cost.wall_seconds);
        std::printf("host execution: serial %.2fs, %u threads %.2fs, "
                    "speedup %.2fx (points bit-identical)\n",
                    serial_s, n_threads,
                    parallel_s, parallel_s > 0.0
                        ? serial_s / parallel_s : 0.0);
        });
    }

    std::printf("\npaper: all 10 points obtained from the same warm-up "
                "in a parallel simulation run; DeLorean tracks the "
                "reference performance curves.\n");
    return 0;
}
