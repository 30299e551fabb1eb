/**
 * @file
 * Tests for the DeLorean core: Scout, Explorers, Analyst, the pipeline
 * model, the end-to-end method, and design-space exploration.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "core/analyst.hh"
#include "core/delorean.hh"
#include "core/dse.hh"
#include "core/pipeline.hh"
#include "core/scout.hh"
#include "profiling/reuse_profiler.hh"
#include "sampling/metrics.hh"
#include "sampling/smarts.hh"
#include "workload/spec_profiles.hh"

namespace
{

using namespace delorean;
using namespace delorean::core;

DeloreanConfig
quickConfig(unsigned regions = 3, InstCount spacing = 500'000)
{
    DeloreanConfig cfg;
    cfg.schedule.num_regions = regions;
    cfg.schedule.spacing = spacing;
    cfg.hier.llc.size = 2 * MiB;
    return cfg;
}

// ------------------------------------------------------------------ scout

TEST(Scout, KeySetMatchesBruteForce)
{
    auto trace = workload::makeSpecTrace("bzip2");
    const auto cfg = quickConfig();
    const auto &sched = cfg.schedule;

    auto scout_trace = trace->clone();
    scout_trace->skip(sched.warmingStart(0));
    const KeySet keys = Scout::scan(*scout_trace, cfg.hier, cfg.sim,
                                    sched.detailed_warming,
                                    sched.region_len);

    // Brute force: unique data lines and first offsets in the region.
    auto check = trace->clone();
    check->skip(sched.detailedStart(0));
    std::unordered_map<Addr, RefCount> first;
    RefCount refs = 0;
    for (InstCount i = 0; i < sched.region_len; ++i) {
        const auto inst = check->next();
        if (!inst.isMem())
            continue;
        first.try_emplace(inst.line(), refs);
        ++refs;
    }

    EXPECT_EQ(keys.uniqueLines(), first.size());
    EXPECT_EQ(keys.region_refs, refs);
    for (const auto &k : keys.keys) {
        ASSERT_TRUE(first.count(k.line));
        EXPECT_EQ(k.first_offset, first.at(k.line));
    }
}

TEST(Scout, LukewarmFilterReducesExploration)
{
    auto trace = workload::makeSpecTrace("bzip2");
    const auto cfg = quickConfig();
    auto scout_trace = trace->clone();
    scout_trace->skip(cfg.schedule.warmingStart(0));
    const KeySet keys = Scout::scan(*scout_trace, cfg.hier, cfg.sim,
                                    cfg.schedule.detailed_warming,
                                    cfg.schedule.region_len);
    const auto need = keys.linesNeedingExploration();
    EXPECT_LT(need.size(), keys.uniqueLines());
    EXPECT_GT(need.size(), 0u);
}

// -------------------------------------------------------------- explorers

/** One cell through the chain: exploration of @p keys alone. */
ExplorerResult
exploreAlone(const ExplorerChain &chain, std::vector<Addr> keys,
             InstCount detailed_start)
{
    std::vector<GroupExploreCell> cells(1);
    cells[0].keys = std::move(keys);
    chain.exploreGroup(cells, detailed_start);
    return std::move(cells[0].result);
}

TEST(Explorer, FindsExactBackwardDistances)
{
    auto trace = workload::makeSpecTrace("gamess");
    const auto cfg = quickConfig();
    const InstCount detailed_start = cfg.schedule.detailedStart(1);

    sampling::TraceCheckpointer cp(*trace);
    cp.prepare(DeloreanMethod::checkpointPositions(cfg));

    // Ground truth: exact backward distances from the region start,
    // over the deepest horizon.
    const auto horizons = cfg.scaledHorizons();
    const InstCount deepest = horizons.back();
    auto gt = cp.at(detailed_start - deepest);
    std::unordered_map<Addr, RefCount> last_seen;
    RefCount refs = 0;
    for (InstCount i = 0; i < deepest; ++i) {
        const auto inst = gt->next();
        if (inst.isMem()) {
            last_seen[inst.line()] = refs;
            ++refs;
        }
    }

    // Keys: first 200 distinct lines in the detailed region.
    auto region = cp.at(detailed_start);
    std::vector<Addr> keys;
    std::unordered_set<Addr> seen;
    for (InstCount i = 0; i < cfg.schedule.region_len; ++i) {
        const auto inst = region->next();
        if (inst.isMem() && seen.insert(inst.line()).second)
            keys.push_back(inst.line());
    }

    ExplorerChain chain({horizons, cfg.paper_horizons,
                         cfg.paper_vicinity_period, 1},
                        cp);
    const auto res = exploreAlone(chain, keys, detailed_start);

    for (const auto &[line, back] : res.back_distance) {
        ASSERT_TRUE(last_seen.count(line)) << line;
        EXPECT_EQ(back, refs - last_seen.at(line)) << line;
    }
    // Everything either resolved or genuinely absent from the window.
    for (const Addr line : res.unresolved)
        EXPECT_FALSE(last_seen.count(line)) << line;
}

TEST(Explorer, ChainNarrowsAndStops)
{
    auto trace = workload::makeSpecTrace("hmmer");
    const auto cfg = quickConfig();
    sampling::TraceCheckpointer cp(*trace);
    cp.prepare(DeloreanMethod::checkpointPositions(cfg));

    auto scout_trace = cp.at(cfg.schedule.warmingStart(1));
    const KeySet keys = Scout::scan(*scout_trace, cfg.hier, cfg.sim,
                                    cfg.schedule.detailed_warming,
                                    cfg.schedule.region_len);

    ExplorerChain chain({cfg.scaledHorizons(), cfg.paper_horizons,
                         cfg.paper_vicinity_period, 1},
                        cp);
    const auto res =
        exploreAlone(chain, keys.linesNeedingExploration(),
                     cfg.schedule.detailedStart(1));

    // hmmer's reuses sit in the early bands: the chain must not engage
    // every explorer.
    EXPECT_LE(res.engaged, 2u);
    Counter found = 0;
    for (const auto f : res.found_by)
        found += f;
    EXPECT_EQ(found, res.back_distance.size());
}

TEST(Explorer, NoKeysMeansNoEngagement)
{
    auto trace = workload::makeSpecTrace("hmmer");
    const auto cfg = quickConfig();
    sampling::TraceCheckpointer cp(*trace);
    cp.prepare(DeloreanMethod::checkpointPositions(cfg));
    ExplorerChain chain({cfg.scaledHorizons(), cfg.paper_horizons,
                         cfg.paper_vicinity_period, 1},
                        cp);
    const auto res =
        exploreAlone(chain, {}, cfg.schedule.detailedStart(0));
    EXPECT_EQ(res.engaged, 0u);
    EXPECT_EQ(res.vicinity_samples, 0u);
}

// ---------------------------------------------------------------- analyst

TEST(Analyst, ClassifiesPerFigure3)
{
    // Hand-built scenario on a small LLC.
    cache::CacheConfig llc_cfg;
    llc_cfg.name = "llc";
    llc_cfg.size = 64 * line_size * 8; // 8 sets x 8 ways = 512 lines
    llc_cfg.assoc = 8;
    llc_cfg.mshrs = 4;
    cache::Cache llc(llc_cfg);
    statmodel::AssocModel assoc(llc_cfg.sets(), llc_cfg.assoc);

    KeySet keys;
    keys.keys.push_back(
        {.line = 100, .first_offset = 0, .pc = 1, .write = false,
         .lukewarm_hit = false});
    keys.keys.push_back(
        {.line = 200, .first_offset = 1, .pc = 2, .write = false,
         .lukewarm_hit = false});
    keys.keys.push_back(
        {.line = 300, .first_offset = 2, .pc = 3, .write = false,
         .lukewarm_hit = false});
    keys.keys.push_back(
        {.line = 400, .first_offset = 3, .pc = 4, .write = false,
         .lukewarm_hit = true});

    ExplorerResult explored;
    explored.back_distance[100] = 50;      // short reuse -> warm
    explored.back_distance[200] = 500'000; // far beyond 512 lines
    // line 300 unresolved -> cold.
    // Vicinity: every access distinct (sd == rd).
    for (int i = 0; i < 1000; ++i)
        explored.vicinity.addCensored(1'000'000);

    AnalystClassifier cls(keys, explored, llc, assoc);

    EXPECT_EQ(cls.classifyMiss(1, 100, false, 0),
              cpu::AccessClass::WarmingHit);
    EXPECT_EQ(cls.classifyMiss(2, 200, false, 1),
              cpu::AccessClass::CapacityMiss);
    EXPECT_EQ(cls.classifyMiss(3, 300, false, 2),
              cpu::AccessClass::ColdMiss);
    // Scout saw it lukewarm: trust the scout.
    EXPECT_EQ(cls.classifyMiss(4, 400, false, 3),
              cpu::AccessClass::WarmingHit);
    // Unknown line (not a key): conservative cold.
    EXPECT_EQ(cls.classifyMiss(9, 999, false, 4),
              cpu::AccessClass::ColdMiss);
}

TEST(Analyst, ConflictWhenSetFull)
{
    cache::CacheConfig llc_cfg;
    llc_cfg.size = 8 * line_size * 2; // 8 sets x 2 ways
    llc_cfg.assoc = 2;
    llc_cfg.mshrs = 4;
    cache::Cache llc(llc_cfg);
    statmodel::AssocModel assoc(llc_cfg.sets(), llc_cfg.assoc);

    // Fill set 0 completely.
    llc.access(0, false);
    llc.access(8, false);

    KeySet keys;
    keys.keys.push_back({.line = 16, .first_offset = 0, .pc = 1,
                         .write = false, .lukewarm_hit = false});
    ExplorerResult explored;
    explored.back_distance[16] = 10;

    AnalystClassifier cls(keys, explored, llc, assoc);
    EXPECT_EQ(cls.classifyMiss(1, 16, false, 0),
              cpu::AccessClass::ConflictMiss);
}

TEST(Analyst, IntraRegionRemissUsesLocalDistance)
{
    cache::CacheConfig llc_cfg;
    llc_cfg.size = 64 * line_size * 8;
    llc_cfg.assoc = 8;
    llc_cfg.mshrs = 4;
    cache::Cache llc(llc_cfg);
    statmodel::AssocModel assoc(llc_cfg.sets(), llc_cfg.assoc);

    KeySet keys;
    keys.keys.push_back({.line = 100, .first_offset = 0, .pc = 1,
                         .write = false, .lukewarm_hit = false});
    ExplorerResult explored;
    explored.back_distance[100] = 10;
    for (int i = 0; i < 100; ++i)
        explored.vicinity.addReuse(20);

    AnalystClassifier cls(keys, explored, llc, assoc);
    EXPECT_EQ(cls.classifyMiss(1, 100, false, 0),
              cpu::AccessClass::WarmingHit);
    EXPECT_EQ(cls.keyDecisions(), 1u);
    // Second classified miss on the same line: intra-region path.
    EXPECT_EQ(cls.classifyMiss(1, 100, false, 500),
              cpu::AccessClass::WarmingHit);
    EXPECT_EQ(cls.intraRegionDecisions(), 1u);
}

// --------------------------------------------------------------- pipeline

TEST(Pipeline, SinglePassIsSerial)
{
    PassCosts p{"only", {1.0, 2.0, 3.0}};
    EXPECT_DOUBLE_EQ(pipelineWallSeconds({p}), 6.0);
    EXPECT_DOUBLE_EQ(pipelineTotalSeconds({p}), 6.0);
}

TEST(Pipeline, PerfectOverlapHidesCost)
{
    // Two equal passes over R regions: wall = (R + 1) stage times.
    PassCosts a{"a", {1.0, 1.0, 1.0, 1.0}};
    PassCosts b{"b", {1.0, 1.0, 1.0, 1.0}};
    EXPECT_DOUBLE_EQ(pipelineWallSeconds({a, b}), 5.0);
    EXPECT_DOUBLE_EQ(pipelineTotalSeconds({a, b}), 8.0);
}

TEST(Pipeline, BottleneckPassDominates)
{
    PassCosts fast{"fast", {0.1, 0.1, 0.1, 0.1}};
    PassCosts slow{"slow", {10.0, 10.0, 10.0, 10.0}};
    const double wall = pipelineWallSeconds({fast, slow});
    EXPECT_NEAR(wall, 40.1, 1e-9);
}

TEST(Pipeline, HandComputedRecurrence)
{
    // C[p][r] = max(C[p][r-1], C[p-1][r]) + t[p][r]
    PassCosts a{"a", {2.0, 1.0}};
    PassCosts b{"b", {1.0, 3.0}};
    // C[a] = 2, 3; C[b] = 3, 6.
    EXPECT_DOUBLE_EQ(pipelineWallSeconds({a, b}), 6.0);
}

// ------------------------------------------------------------- end to end

TEST(Delorean, EndToEndSaneAndAccurate)
{
    auto trace = workload::makeSpecTrace("gamess");
    const auto cfg = quickConfig();
    const auto s = sampling::SmartsMethod::run(*trace, cfg);
    const auto d = DeloreanMethod::run(*trace, cfg);

    EXPECT_EQ(d.method, "DeLorean");
    EXPECT_EQ(d.regions.size(), 3u);
    EXPECT_GT(d.keys_total, 0u);
    EXPECT_GE(d.keys_total, d.keys_explored);
    EXPECT_GT(d.reuse_samples, 0u);
    EXPECT_LT(sampling::cpiErrorPct(s, d), 15.0);
    EXPECT_GT(sampling::speedupOver(s, d), 5.0);
}

TEST(Delorean, Deterministic)
{
    auto trace = workload::makeSpecTrace("namd");
    const auto cfg = quickConfig();
    const auto a = DeloreanMethod::run(*trace, cfg);
    const auto b = DeloreanMethod::run(*trace, cfg);
    EXPECT_DOUBLE_EQ(a.cpi(), b.cpi());
    EXPECT_EQ(a.reuse_samples, b.reuse_samples);
    EXPECT_EQ(a.traps, b.traps);
}

TEST(Delorean, KeyAccountingConsistent)
{
    auto trace = workload::makeSpecTrace("bzip2");
    const auto d = DeloreanMethod::run(*trace, quickConfig());
    Counter by_explorer = 0;
    for (const auto k : d.keys_by_explorer)
        by_explorer += k;
    EXPECT_EQ(by_explorer + d.keys_unresolved, d.keys_explored);
}

TEST(Delorean, ScaledHorizonsRespectFloorsAndSpacing)
{
    DeloreanConfig cfg;
    cfg.schedule.spacing = 5'000'000;
    const auto h = cfg.scaledHorizons();
    ASSERT_GE(h.size(), 2u);
    const InstCount luke =
        cfg.schedule.detailed_warming + cfg.schedule.region_len;
    EXPECT_GT(h.front(), luke); // E1 must reach past the lukewarm window
    EXPECT_LE(h.back(), cfg.schedule.spacing);
    for (std::size_t i = 1; i < h.size(); ++i)
        EXPECT_GT(h[i], h[i - 1]);
}

// ---------------------------------------------------------------- golden

// Golden-value regression pin: bzip2 on the quick schedule. These
// values were produced by the current Scout/Explorer/Analyst stack; a
// future refactor that shifts any of them is a behaviour change and
// must update this test deliberately (integer statistics are exact,
// floating-point ones get a tiny tolerance for cross-compiler
// FP-contraction differences).
TEST(Delorean, GoldenBzip2QuickSchedule)
{
    auto trace = workload::makeSpecTrace("bzip2");
    const auto cfg = quickConfig();
    const auto s = sampling::SmartsMethod::run(*trace, cfg);
    const auto d = DeloreanMethod::run(*trace, cfg);

    auto near = [](double expected) {
        return std::abs(expected) * 1e-6 + 1e-12;
    };
    EXPECT_NEAR(d.cpi(), 0.60816875, near(0.60816875));
    EXPECT_NEAR(d.mpki(), 3.3333333333333335, near(3.33));
    EXPECT_NEAR(d.total.cycles, 18245.0625, near(18245.0625));
    EXPECT_NEAR(s.cpi(), 0.551325, near(0.551325));
    EXPECT_NEAR(sampling::speedupOver(s, d), 86.321063285394573,
                near(86.32));
    EXPECT_NEAR(d.mips, 121.10198087117406, near(121.1));
    EXPECT_NEAR(d.avg_explorers, 2.0, near(2.0));

    EXPECT_EQ(d.keys_total, 1789u);
    EXPECT_EQ(d.keys_explored, 635u);
    EXPECT_EQ(d.keys_unresolved, 100u);
    EXPECT_EQ(d.traps, 35211u);
    EXPECT_EQ(d.reuse_samples, 1131u);
}

// ----------------------------------------------------------------- DSE

TEST(Dse, SharedWarmupManyAnalysts)
{
    auto trace = workload::makeSpecTrace("gamess");
    const auto cfg = quickConfig();
    const std::vector<std::uint64_t> sizes = {1 * MiB, 2 * MiB, 4 * MiB,
                                              8 * MiB};
    const auto out = DesignSpaceExplorer::run(*trace, cfg, sizes);

    ASSERT_EQ(out.points.size(), sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i)
        EXPECT_EQ(out.points[i].llc_size, sizes[i]);

    // MPKI must not increase with cache size (within noise).
    for (std::size_t i = 1; i < out.points.size(); ++i) {
        EXPECT_LE(out.points[i].result.mpki(),
                  out.points[i - 1].result.mpki() + 0.5);
    }

    // Amortization: K analysts cost far less than K full runs.
    EXPECT_GT(out.cost.marginal_factor, 1.0);
    EXPECT_LT(out.cost.marginal_factor, double(sizes.size()));
    EXPECT_GT(out.cost.warm_to_detailed_ratio, 1.0);
    EXPECT_GT(out.cost.wall_seconds, 0.0);
}

// Golden-value pin of the amortized sweep (tolerance rule of
// Delorean.GoldenBzip2QuickSchedule). gamess's working set fits the
// smallest LLC, so every point lands on the same statistics.
TEST(Dse, GoldenGamessLlcSweep)
{
    auto trace = workload::makeSpecTrace("gamess");
    const std::vector<std::uint64_t> sizes = {1 * MiB, 2 * MiB, 4 * MiB,
                                              8 * MiB};
    const auto out = DesignSpaceExplorer::run(*trace, quickConfig(), sizes);

    auto near = [](double expected) {
        return std::abs(expected) * 1e-6 + 1e-12;
    };
    ASSERT_EQ(out.points.size(), sizes.size());
    for (const auto &point : out.points) {
        const auto &r = point.result;
        SCOPED_TRACE(point.llc_size);
        EXPECT_EQ(r.keys_total, 1341u);
        EXPECT_EQ(r.keys_explored, 192u);
        EXPECT_EQ(r.keys_unresolved, 64u);
        EXPECT_EQ(r.traps, 6191u);
        EXPECT_EQ(r.reuse_samples, 281u);
        EXPECT_EQ(r.false_positives, 6077u);
        EXPECT_EQ(r.total.llcMisses(), 64u);
        EXPECT_NEAR(r.cpi(), 0.592275, near(0.592275));
    }
    EXPECT_NEAR(out.cost.total_core_seconds, 35.380003539823008,
                near(35.38));
    EXPECT_NEAR(out.cost.wall_seconds, 24.554339823008853,
                near(24.554));
}

TEST(Dse, MatchesSingleRunCpi)
{
    // A DSE point must closely match a standalone DeLorean run at the
    // same size (the Scout filter differs slightly: smallest-LLC
    // lukewarm vs own-LLC lukewarm).
    auto trace = workload::makeSpecTrace("hmmer");
    const auto cfg = quickConfig();
    const auto out =
        DesignSpaceExplorer::run(*trace, cfg, {2 * MiB});
    const auto single = DeloreanMethod::run(*trace, cfg);
    EXPECT_NEAR(out.points[0].result.cpi(), single.cpi(),
                0.05 * single.cpi());
}

} // namespace
