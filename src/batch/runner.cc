#include "batch/runner.hh"

#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "base/logging.hh"
#include "batch/error.hh"
#include "checkpoint/livepoint.hh"
#include "core/delorean.hh"
#include "core/parallel.hh"
#include "sampling/coolsim.hh"
#include "sampling/smarts.hh"
#include "workload/trace_registry.hh"

namespace delorean::batch
{

namespace
{

/**
 * Cells eligible for co-scheduled execution: exact-mode DeLorean with
 * no live-point file. Everything else runs solo through runCell.
 */
bool
coSchedulable(const BatchCell &cell)
{
    return cell.method == "delorean" && cell.config.confidence == 0.0 &&
           cell.config.livepoint_file.empty();
}

/**
 * Cells in one co-scheduled group must share everything that shapes
 * the group's decode pass: the trace, the region schedule and the
 * Explorer geometry (core::DeloreanMethod::runGroup's contract). The hierarchy, detailed
 * simulator and cost model may differ freely — they are per-cell.
 */
std::string
groupKey(const BatchCell &cell)
{
    const auto &c = cell.config;
    const auto &s = c.schedule;
    std::string key = normalizeSpec(cell.workload);
    key += '|' + std::to_string(s.num_regions);
    key += '|' + std::to_string(s.spacing);
    key += '|' + std::to_string(s.region_len);
    key += '|' + std::to_string(s.detailed_warming);
    key += '|' + std::to_string(c.paper_vicinity_period);
    for (const auto h : c.paper_horizons)
        key += ',' + std::to_string(h);
    return key;
}

} // namespace

std::vector<std::vector<std::size_t>>
planWorkUnits(const std::vector<const BatchCell *> &cells)
{
    std::vector<std::vector<std::size_t>> units;
    std::unordered_map<std::string, std::size_t> group_of;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!coSchedulable(*cells[i])) {
            units.push_back({i});
            continue;
        }
        const auto [it, fresh] =
            group_of.try_emplace(groupKey(*cells[i]), units.size());
        if (fresh)
            units.push_back({i});
        else
            units[it->second].push_back(i);
    }
    return units;
}

std::vector<sampling::MethodResult>
BatchRunner::runUnit(const std::vector<const BatchCell *> &cells,
                     core::Executor *executor)
{
    if (cells.empty())
        return {};
    if (cells.size() == 1)
        return {runCell(*cells.front(), executor)};

    // A multi-cell unit co-schedules only if every member still
    // qualifies and agrees on the group key — a unit straight from
    // planWorkUnits does by construction, but a unit that crossed the
    // wire (coordinator lease) is untrusted input and degrades to
    // solo execution rather than corrupting a group decode.
    bool groupable = coSchedulable(*cells.front());
    for (std::size_t i = 1; groupable && i < cells.size(); ++i)
        groupable = coSchedulable(*cells[i]) &&
                    groupKey(*cells[i]) == groupKey(*cells.front());
    if (!groupable) {
        std::vector<sampling::MethodResult> results;
        results.reserve(cells.size());
        for (const BatchCell *cell : cells)
            results.push_back(runCell(*cell, executor));
        return results;
    }

    const BatchCell &lead = *cells.front();
    std::vector<core::DeloreanConfig> configs;
    configs.reserve(cells.size());
    for (const BatchCell *cell : cells)
        configs.push_back(cell->config);
    try {
        const auto trace = workload::makeTrace(lead.workload);
        return core::DeloreanMethod::runGroup(*trace, configs, executor);
    } catch (const BatchError &) {
        throw;
    } catch (const std::exception &e) {
        throw BatchError(lead.workload + " [delorean, co-scheduled x" +
                         std::to_string(cells.size()) +
                         "]: " + e.what());
    }
}

void
RerecordGuard::check(const BatchCell &cell)
{
    if (!specIsFileBacked(normalizeSpec(cell.workload)))
        return;
    std::optional<CacheKey> now;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = identities_.find(cell.workload);
        if (it != identities_.end())
            now = it->second;
    }
    if (!now) {
        // Digest outside the lock: a big trace must not serialize
        // every caller behind one file read.
        const CacheKey id = workloadIdentity(cell.workload);
        std::lock_guard<std::mutex> lock(mutex_);
        now = identities_.try_emplace(cell.workload, id).first->second;
    }
    if (*now != cell.workload_identity)
        throw BatchError(cell.workload +
                         ": file changed after the plan was keyed; "
                         "result discarded — run the plan again");
}

sampling::MethodResult
BatchRunner::runCell(const BatchCell &cell, core::Executor *executor)
{
    try {
        auto trace = workload::makeTrace(cell.workload);
        if (cell.method == "smarts")
            return sampling::SmartsMethod::run(*trace, cell.config);
        if (cell.method == "coolsim")
            return sampling::CoolSimMethod::run(*trace, cell.config);
        if (cell.method == "delorean") {
            // Live-points are an accelerator, never a correctness
            // input: a missing/corrupt/mismatched file degrades to a
            // fresh warm-up (which produces bit-identical results).
            if (!cell.config.livepoint_file.empty()) {
                try {
                    const auto warm = checkpoint::loadForRun(
                        cell.workload, cell.config,
                        cell.config.livepoint_file);
                    return core::DeloreanMethod::run(
                        *trace, cell.config, &warm, executor);
                } catch (const checkpoint::CheckpointError &e) {
                    warn("%s: %s; falling back to a fresh warm-up",
                         cell.workload.c_str(), e.what());
                }
            }
            return core::DeloreanMethod::run(*trace, cell.config,
                                             nullptr, executor);
        }
    } catch (const std::exception &e) {
        // E.g. a recording shorter than the schedule; tag with the
        // workload so batch CLIs report which cell failed.
        throw BatchError(cell.workload + " [" + cell.method +
                         "]: " + e.what());
    }
    throw BatchError("unknown method '" + cell.method + "'");
}

BatchReport
BatchRunner::run(const BatchPlan &plan, const BatchOptions &opt)
{
    if (opt.shard_count == 0 || opt.shard_index >= opt.shard_count)
        throw BatchError("invalid shard " +
                         std::to_string(opt.shard_index) + "/" +
                         std::to_string(opt.shard_count));

    std::unique_ptr<ResultCache> cache;
    if (opt.use_cache)
        cache = std::make_unique<ResultCache>(opt.cache_dir);

    std::vector<const BatchCell *> mine;
    for (const auto &cell : plan.cells())
        if (cell.index % opt.shard_count == opt.shard_index)
            mine.push_back(&cell);

    BatchReport report;
    report.skipped = plan.cells().size() - mine.size();

    // Co-scheduling: cells that share a trace and Explorer geometry
    // execute as one unit — the group decodes each Explorer window
    // once and fans the reference stream out to every cell's profiler
    // (core::DeloreanMethod::runGroup). Grouping changes execution
    // only: each cell's result, and the key it is cached under, is
    // bit-identical to a solo runCell. Units preserve first-member
    // order, and outcomes scatter back by position, so report order
    // is unchanged for any grouping. The same planWorkUnits feeds the
    // fleet coordinator's leases, so a fleet run executes identical
    // groupings.
    const std::vector<std::vector<std::size_t>> units =
        planWorkUnits(mine);

    // Stores a freshly computed result unless its file-backed workload
    // was re-recorded since the plan was keyed (one guard per run).
    RerecordGuard rerecorded;
    const auto storeResult = [&](const BatchCell &cell,
                                 const sampling::MethodResult &result) {
        if (!cache)
            return;
        rerecorded.check(cell);
        cache->store(cell.key, result);
    };

    // One thread budget for units and their windows: threads - 1 pool
    // workers and this thread claim units, and the same pool runs the
    // units' window fan-outs. A worker takes offers in the order they
    // were posted, so it helps windows only once every unit is
    // claimed; threads = 1 runs everything inline.
    const unsigned threads = core::resolveThreads(opt.threads);
    std::unique_ptr<core::ThreadPool> pool;
    if (threads > 1)
        pool = std::make_unique<core::ThreadPool>(threads - 1);

    std::vector<CellOutcome> outcomes(mine.size());
    const auto runOne = [&](std::size_t u) {
        // Probe the cache per member first; only the misses run, and
        // a group's misses still co-schedule (any subset is valid).
        std::vector<std::size_t> misses;
        for (const std::size_t i : units[u]) {
            const BatchCell &cell = *mine[i];
            CellOutcome &outcome = outcomes[i];
            outcome.cell = cell.index;
            if (cache) {
                if (auto hit = cache->load(cell.key)) {
                    if (opt.verbose)
                        std::fprintf(stderr,
                                     "[batch] %s %s (%s/%s): cached\n",
                                     cell.workload.c_str(),
                                     cell.method.c_str(),
                                     cell.config_name.c_str(),
                                     cell.schedule_name.c_str());
                    outcome.result = std::move(*hit);
                    outcome.from_cache = true;
                    continue;
                }
            }
            misses.push_back(i);
        }
        if (misses.empty())
            return 0;
        if (opt.verbose) {
            for (const std::size_t i : misses) {
                const BatchCell &cell = *mine[i];
                std::fprintf(stderr,
                             "[batch] %s %s (%s/%s): run%s...\n",
                             cell.workload.c_str(), cell.method.c_str(),
                             cell.config_name.c_str(),
                             cell.schedule_name.c_str(),
                             misses.size() > 1 ? " (co-scheduled)"
                                               : "");
            }
        }
        std::vector<const BatchCell *> to_run;
        to_run.reserve(misses.size());
        for (const std::size_t i : misses)
            to_run.push_back(mine[i]);
        auto results = runUnit(to_run, pool.get());
        for (std::size_t j = 0; j < misses.size(); ++j) {
            const BatchCell &cell = *mine[misses[j]];
            CellOutcome &outcome = outcomes[misses[j]];
            outcome.result = std::move(results[j]);
            storeResult(cell, outcome.result);
        }
        return 0;
    };
    if (pool)
        core::parallelMap(*pool, units.size(), runOne);
    else
        core::parallelMap(units.size(), 1, runOne);

    report.outcomes = std::move(outcomes);
    for (const auto &outcome : report.outcomes) {
        if (outcome.from_cache)
            ++report.cache_hits;
        else
            ++report.executed;
    }
    if (cache)
        cache->recordRun(report.executed, report.cache_hits);
    return report;
}

} // namespace delorean::batch
