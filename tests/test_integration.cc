/**
 * @file
 * Cross-method integration and property tests: the paper's headline
 * claims at test scale, parameterized over benchmarks and cache sizes.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/delorean.hh"
#include "sampling/coolsim.hh"
#include "sampling/metrics.hh"
#include "sampling/smarts.hh"
#include "workload/spec_profiles.hh"

namespace
{

using namespace delorean;
using namespace delorean::sampling;

/**
 * DeLorean's pinned accuracy budget: the CPI error against SMARTS
 * each case measured when the budget was set, plus a one percentage
 * point margin. Accuracy drift past the margin fails this suite instead
 * of passing inside a generic 20-25% band. Measured (%):
 *
 *   MethodTriple   gamess 11.4355, hmmer 0.7605, namd 1.5401,
 *                  bwaves 2.0997, bzip2 10.3104
 *   LlcSizeSweep   bzip2 at 1/2/4/16/64 MiB: 10.3104 each
 *   Variants       prefetching libquantum 0.4616;
 *                  gobmk lukewarm 10 k 3.3557, 50 k 2.3937
 */
constexpr double budget_margin_pct = 1.0;

double
measuredErrorPct(const std::string &benchmark)
{
    static const std::map<std::string, double> measured = {
        {"gamess", 11.4355}, {"hmmer", 0.7605}, {"namd", 1.5401},
        {"bwaves", 2.0997},  {"bzip2", 10.3104},
    };
    return measured.at(benchmark);
}

core::DeloreanConfig
testConfig(std::uint64_t llc = 2 * MiB)
{
    core::DeloreanConfig cfg;
    cfg.schedule.num_regions = 3;
    cfg.schedule.spacing = 500'000;
    cfg.hier.llc.size = llc;
    return cfg;
}

// ----------------------------------------------- per-benchmark properties

class MethodTriple : public ::testing::TestWithParam<std::string>
{
};

TEST_P(MethodTriple, HeadlineOrderingHolds)
{
    auto trace = workload::makeSpecTrace(GetParam());
    const auto cfg = testConfig();
    const auto s = SmartsMethod::run(*trace, cfg);
    const auto c = CoolSimMethod::run(*trace, cfg);
    const auto d = core::DeloreanMethod::run(*trace, cfg);

    // Speed ordering: SMARTS slowest; both statistical methods are at
    // least several times faster (Figure 5's structure).
    EXPECT_GT(speedupOver(s, c), 3.0) << "CoolSim vs SMARTS";
    EXPECT_GT(speedupOver(s, d), 3.0) << "DeLorean vs SMARTS";

    // DSW collects fewer reuse distances than RSW (Figure 6).
    EXPECT_LT(d.reuse_samples, c.reuse_samples);

    // Accuracy: DeLorean inside its pinned budget, CoolSim within a
    // loose band at this tiny test scale. (RSW degrades sharply once
    // workload reuse distances approach the shrunken warm-up interval —
    // hmmer's streaming reuse does exactly that here — so its band is
    // wide; DSW, with exact key reuses, stays tight. This *is* the
    // paper's argument in miniature.)
    EXPECT_LT(cpiErrorPct(s, d),
              measuredErrorPct(GetParam()) + budget_margin_pct)
        << "DeLorean error";
    EXPECT_LT(cpiErrorPct(s, c), 120.0) << "CoolSim error";
}

TEST_P(MethodTriple, InstructionStreamsAligned)
{
    // All methods must evaluate the same detailed regions: the region
    // memory-reference counts must match exactly.
    auto trace = workload::makeSpecTrace(GetParam());
    const auto cfg = testConfig();
    const auto s = SmartsMethod::run(*trace, cfg);
    const auto c = CoolSimMethod::run(*trace, cfg);
    const auto d = core::DeloreanMethod::run(*trace, cfg);
    ASSERT_EQ(s.regions.size(), c.regions.size());
    ASSERT_EQ(s.regions.size(), d.regions.size());
    for (std::size_t r = 0; r < s.regions.size(); ++r) {
        EXPECT_EQ(s.regions[r].mem_refs, c.regions[r].mem_refs) << r;
        EXPECT_EQ(s.regions[r].mem_refs, d.regions[r].mem_refs) << r;
        EXPECT_EQ(s.regions[r].branches, d.regions[r].branches) << r;
    }
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, MethodTriple,
                         ::testing::Values("gamess", "hmmer", "namd",
                                           "bwaves", "bzip2"),
                         [](const auto &info) { return info.param; });

// -------------------------------------------------- cache size properties

class LlcSizeSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(LlcSizeSweep, SmartsMpkiMonotoneBaseline)
{
    // Larger LLCs can only help: compare against the 1 MiB baseline.
    auto trace = workload::makeSpecTrace("bzip2");
    const auto small = SmartsMethod::run(*trace, testConfig(1 * MiB));
    const auto big = SmartsMethod::run(*trace, testConfig(GetParam()));
    EXPECT_LE(big.mpki(), small.mpki() + 0.5);
    EXPECT_LE(big.cpi(), small.cpi() * 1.05);
}

TEST_P(LlcSizeSweep, DeloreanTracksSmarts)
{
    auto trace = workload::makeSpecTrace("bzip2");
    const auto cfg = testConfig(GetParam());
    const auto s = SmartsMethod::run(*trace, cfg);
    const auto d = core::DeloreanMethod::run(*trace, cfg);
    EXPECT_LT(cpiErrorPct(s, d),
              measuredErrorPct("bzip2") + budget_margin_pct);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LlcSizeSweep,
                         ::testing::Values(1 * MiB, 2 * MiB, 4 * MiB,
                                           16 * MiB, 64 * MiB),
                         [](const auto &info) {
                             return std::to_string(info.param / MiB) +
                                    "MiB";
                         });

// -------------------------------------------------------- general checks

TEST(Integration, PrefetchVariantRuns)
{
    // §6.3.2: predicted-miss-triggered prefetching must work end to end.
    auto trace = workload::makeSpecTrace("libquantum");
    auto cfg = testConfig();
    cfg.sim.prefetch = true;
    const auto s = SmartsMethod::run(*trace, cfg);
    const auto d = core::DeloreanMethod::run(*trace, cfg);
    EXPECT_GT(s.total.prefetches_issued +
                  s.total.prefetches_nullified, 0u);
    EXPECT_LT(cpiErrorPct(s, d), 0.4616 + budget_margin_pct);
}

TEST(Integration, ReplacementPolicyVariantsRun)
{
    // §4.1: the cache substrate supports non-LRU policies end to end.
    for (const auto kind :
         {cache::ReplKind::Random, cache::ReplKind::TreePLRU,
          cache::ReplKind::NMRU}) {
        auto trace = workload::makeSpecTrace("gamess");
        auto cfg = testConfig();
        cfg.hier.llc.repl = kind;
        const auto s = SmartsMethod::run(*trace, cfg);
        EXPECT_GT(s.cpi(), 0.1) << replKindName(kind);
    }
}

TEST(Integration, LargerLukewarmWindowNeverHurtsDelorean)
{
    auto trace = workload::makeSpecTrace("gobmk");
    auto small = testConfig();
    small.schedule.detailed_warming = 10'000;
    auto big = testConfig();
    big.schedule.detailed_warming = 50'000;

    const auto s_small = SmartsMethod::run(*trace, small);
    const auto d_small = core::DeloreanMethod::run(*trace, small);
    const auto s_big = SmartsMethod::run(*trace, big);
    const auto d_big = core::DeloreanMethod::run(*trace, big);

    // Both configurations stay accurate.
    EXPECT_LT(cpiErrorPct(s_small, d_small), 3.3557 + budget_margin_pct);
    EXPECT_LT(cpiErrorPct(s_big, d_big), 2.3937 + budget_margin_pct);
}

} // namespace
