/**
 * @file
 * Tests for the sampling framework: region schedule, trace
 * checkpointing, the SMARTS and CoolSim methods, and metrics.
 */

#include <gtest/gtest.h>

#include "sampling/coolsim.hh"
#include "sampling/metrics.hh"
#include "sampling/region.hh"
#include "sampling/smarts.hh"
#include "workload/spec_profiles.hh"

namespace
{

using namespace delorean;
using namespace delorean::sampling;

// -------------------------------------------------------------- schedule

TEST(RegionSchedule, PositionsAreConsistent)
{
    RegionSchedule s;
    s.num_regions = 10;
    s.spacing = 5'000'000;
    s.validate();
    for (unsigned r = 0; r < s.num_regions; ++r) {
        EXPECT_EQ(s.regionEnd(r), (r + 1) * s.spacing);
        EXPECT_EQ(s.detailedStart(r) + s.region_len, s.regionEnd(r));
        EXPECT_EQ(s.warmingStart(r) + s.detailed_warming,
                  s.detailedStart(r));
    }
    EXPECT_EQ(s.totalInstructions(), 50'000'000u);
    EXPECT_DOUBLE_EQ(s.scaleFactor(), 200.0);
}

TEST(RegionSchedule, ScaleInterval)
{
    RegionSchedule s;
    s.spacing = 5'000'000; // S = 200
    EXPECT_EQ(s.scaleInterval(1'000'000'000), 5'000'000u);
    EXPECT_EQ(s.scaleInterval(5'000'000), 25'000u);
    EXPECT_EQ(s.scaleInterval(100), 1u); // floored at 1
}

// ---------------------------------------------------------- checkpointer

TEST(TraceCheckpointer, ExactPositions)
{
    auto trace = workload::makeSpecTrace("bzip2");
    TraceCheckpointer cp(*trace);
    cp.prepare({1000, 5000, 20000});
    EXPECT_EQ(cp.checkpoints(), 3u);

    for (const InstCount pos : {0u, 1000u, 3000u, 5000u, 20001u}) {
        auto t = cp.at(pos);
        EXPECT_EQ(t->position(), pos);
    }
}

TEST(TraceCheckpointer, StreamsMatchDirectSkip)
{
    auto trace = workload::makeSpecTrace("namd");
    TraceCheckpointer cp(*trace);
    cp.prepare({10000, 40000});

    auto from_cp = cp.at(40000);
    auto direct = trace->clone();
    direct->skip(40000);
    for (int i = 0; i < 2000; ++i) {
        const auto a = from_cp->next();
        const auto b = direct->next();
        ASSERT_EQ(a.addr, b.addr);
        ASSERT_EQ(a.pc, b.pc);
    }
}

TEST(TraceCheckpointer, DuplicatePositionsDeduped)
{
    auto trace = workload::makeSpecTrace("namd");
    TraceCheckpointer cp(*trace);
    cp.prepare({100, 100, 200, 200, 200});
    EXPECT_EQ(cp.checkpoints(), 2u);
}

TEST(CheckpointPositions, CoverAllRegionsAndHorizons)
{
    RegionSchedule s;
    s.num_regions = 3;
    s.spacing = 500'000;
    const auto positions =
        checkpointPositions(s, {100'000, 400'000}, 0, s.num_regions);
    // 3 regions x (warmingStart + 2 horizons).
    EXPECT_EQ(positions.size(), 9u);

    // A region range covers just its own windows' positions.
    const auto tail =
        checkpointPositions(s, {100'000, 400'000}, 1, s.num_regions);
    EXPECT_EQ(tail, std::vector<InstCount>(positions.begin() + 3,
                                           positions.end()));
}

// ---------------------------------------------------------------- methods

MethodConfig
quickConfig()
{
    MethodConfig cfg;
    cfg.schedule.num_regions = 3;
    cfg.schedule.spacing = 500'000;
    cfg.hier.llc.size = 2 * MiB;
    return cfg;
}

TEST(Smarts, ProducesSaneResults)
{
    auto trace = workload::makeSpecTrace("gamess");
    const auto r = SmartsMethod::run(*trace, quickConfig());
    EXPECT_EQ(r.method, "SMARTS");
    EXPECT_EQ(r.benchmark, "gamess");
    EXPECT_EQ(r.regions.size(), 3u);
    EXPECT_GT(r.cpi(), 0.1);
    EXPECT_LT(r.cpi(), 10.0);
    EXPECT_EQ(r.total.instructions, 30'000u);
    EXPECT_GT(r.wall_seconds, 0.0);
    EXPECT_GT(r.mips, 0.0);
    EXPECT_EQ(r.reuse_samples, 0u); // SMARTS collects none
}

TEST(Smarts, Deterministic)
{
    auto trace = workload::makeSpecTrace("gamess");
    const auto a = SmartsMethod::run(*trace, quickConfig());
    const auto b = SmartsMethod::run(*trace, quickConfig());
    EXPECT_DOUBLE_EQ(a.cpi(), b.cpi());
    EXPECT_EQ(a.total.llcMisses(), b.total.llcMisses());
}

TEST(CoolSim, ProducesSaneResults)
{
    auto trace = workload::makeSpecTrace("gamess");
    const auto r = CoolSimMethod::run(*trace, quickConfig());
    EXPECT_EQ(r.method, "CoolSim");
    EXPECT_EQ(r.regions.size(), 3u);
    EXPECT_GT(r.cpi(), 0.1);
    EXPECT_GT(r.reuse_samples, 1000u);
    EXPECT_GT(r.traps, 0u);
    // No SMARTS-style real misses: every LLC decision is statistical.
    EXPECT_EQ(r.total.classCount(cpu::AccessClass::RealMiss), 0u);
}

TEST(CoolSim, FasterThanSmartsInModeledTime)
{
    auto trace = workload::makeSpecTrace("gamess");
    const auto s = SmartsMethod::run(*trace, quickConfig());
    const auto c = CoolSimMethod::run(*trace, quickConfig());
    EXPECT_GT(speedupOver(s, c), 2.0);
}

TEST(CoolSim, AccuracyWithinBounds)
{
    auto trace = workload::makeSpecTrace("gamess");
    const auto cfg = quickConfig();
    const auto s = SmartsMethod::run(*trace, cfg);
    const auto c = CoolSimMethod::run(*trace, cfg);
    EXPECT_LT(cpiErrorPct(s, c), 30.0);
}

// ---------------------------------------------------------------- metrics

TEST(Metrics, RelativeError)
{
    EXPECT_NEAR(relativeErrorPct(2.0, 2.2), 10.0, 1e-9);
    EXPECT_NEAR(relativeErrorPct(2.0, 1.8), 10.0, 1e-9);
    EXPECT_DOUBLE_EQ(relativeErrorPct(0.0, 5.0), 0.0);
}

TEST(Metrics, Means)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_NEAR(geomean({1.0, 100.0}), 10.0, 1e-9);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Metrics, Speedup)
{
    MethodResult slow, fast;
    slow.wall_seconds = 100.0;
    fast.wall_seconds = 10.0;
    EXPECT_DOUBLE_EQ(speedupOver(slow, fast), 10.0);
}

} // namespace
