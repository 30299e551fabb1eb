/**
 * @file
 * Design-space exploration (paper §6.4.2): evaluate CPI across ten LLC
 * sizes from a single shared warm-up, and show the amortization
 * economics (warm-up dominates, so extra Analysts are almost free).
 *
 *   ./design_space_exploration [trace-spec] [spacing] [threads]
 *
 * With threads > 1 (default: one per hardware thread) the shared
 * warm-up fans regions and the sweep fans Analysts across host cores;
 * the points are bit-identical to a serial run.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "core/dse.hh"
#include "core/parallel.hh"
#include "statmodel/working_set.hh"
#include "workload/trace_registry.hh"

int
main(int argc, char **argv)
{
    using namespace delorean;

    const std::string name = argc > 1 ? argv[1] : "mcf";
    const InstCount spacing =
        argc > 2 ? InstCount(std::atoll(argv[2])) : 5'000'000;
    const long threads_arg =
        argc > 3 ? std::atol(argv[3])
                 : long(core::ThreadPool::defaultThreads());
    if (threads_arg < 0) {
        std::fprintf(stderr,
                     "usage: %s [trace-spec] [spacing] [threads >= 0]\n",
                     argv[0]);
        return 1;
    }
    const unsigned threads =
        core::resolveThreads(unsigned(threads_arg));

    auto trace = [&] {
        try {
            return workload::makeTrace(name);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s\n", e.what());
            std::exit(1);
        }
    }();
    core::DeloreanConfig cfg;
    cfg.schedule.spacing = spacing;
    // The windows fan out over threads - 1 pool workers plus this
    // thread.
    std::unique_ptr<core::ThreadPool> pool;
    if (threads > 1)
        pool = std::make_unique<core::ThreadPool>(threads - 1);

    const auto sizes = statmodel::paperLlcSizes();
    const auto t0 = std::chrono::steady_clock::now();
    const auto out =
        core::DesignSpaceExplorer::run(*trace, cfg, sizes, pool.get());
    const double host_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();

    std::printf("LLC design sweep for %s (all points from ONE "
                "warm-up, %u host threads, %.2fs host time)\n\n",
                name.c_str(), threads, host_s);
    std::printf("%10s %10s %10s %14s\n", "LLC", "CPI", "MPKI",
                "avg explorers");
    for (const auto &p : out.points) {
        std::printf("%7llu MiB %10.3f %10.2f %14.1f\n",
                    (unsigned long long)(p.llc_size / MiB),
                    p.result.cpi(), p.result.mpki(),
                    p.result.avg_explorers);
    }

    std::printf("\namortization report:\n");
    std::printf("  shared warm-up (Scout+Explorers): %10.1f modeled "
                "seconds\n",
                out.cost.shared_seconds);
    std::printf("  one Analyst pass:                 %10.1f modeled "
                "seconds\n",
                out.cost.analyst_seconds);
    std::printf("  total for %zu configurations:      %10.1f modeled "
                "seconds\n",
                sizes.size(), out.cost.total_core_seconds);
    std::printf("  marginal cost vs one config:      %10.3fx "
                "(paper: <1.05x for 10 Analysts)\n",
                out.cost.marginal_factor);
    std::printf("  warm-up : detailed simulation =   %10.0fx "
                "(paper: ~235x)\n",
                out.cost.warm_to_detailed_ratio);
    std::printf("  pipelined wall-clock:             %10.1f modeled "
                "seconds\n",
                out.cost.wall_seconds);
    return 0;
}
