#include "core/explorer.hh"

#include <algorithm>
#include <array>

#include "base/logging.hh"

namespace delorean::core
{

namespace
{

/**
 * Decoded memory-access lines of one region's Explorer windows.
 *
 * Explorer windows are nested: every window ends at the detailed start
 * and horizons grow strictly, so Explorer k+1's window contains
 * Explorer k's entirely. After Explorer k runs, the cache holds the
 * memory-access line stream of [start, detailed start); Explorer k+1
 * then only re-executes the fresh prefix [its window start, start) and
 * replays the suffix straight from the cached lines. The observers consume an
 * identical reference stream either way, so cached replay is
 * bit-identical to full re-execution (the golden-pinned core/batch
 * suites check this).
 */
struct WindowLineCache
{
    /** Trace position the cached lines begin at. */
    InstCount start = 0;

    bool valid = false;

    /** Memory-access lines of [start, detailed start), stream order. */
    std::vector<Addr> lines;
};

/**
 * Fold one window's directed-profiling and vicinity outputs into a
 * cell's result.
 *
 * @return the keys still unresolved (the next Explorer's input)
 */
std::vector<Addr>
foldWindow(ExplorerResult &res, std::size_t k,
           profiling::DirectedProfileResult profile,
           const profiling::VicinitySampler &vicinity)
{
    res.found_by[k] = profile.back_distance.size();
    res.dp_traps[k] = profile.traps;
    res.dp_false_positives[k] = profile.false_positives;
    res.vicinity_traps[k] = vicinity.traps();
    res.vicinity_false_positives[k] = vicinity.falsePositives();
    res.vicinity_samples += vicinity.samples();
    res.vicinity.merge(vicinity.histogram());

    for (const auto &[line, back] : profile.back_distance)
        res.back_distance.emplace(line, back);
    return std::move(profile.unresolved);
}

} // namespace

std::uint64_t
ExplorerConfig::vicinityPeriod(std::size_t k) const
{
    const InstCount window = horizons.at(k);
    const InstCount paper_window = k < paper_horizons.size()
                                       ? paper_horizons[k]
                                       : paper_horizons.empty()
                                             ? window
                                             : paper_horizons.back();
    const double period = double(paper_vicinity_period) *
                          double(window) / double(paper_window);
    return std::max<std::uint64_t>(1, std::uint64_t(period));
}

ExplorerChain::ExplorerChain(const ExplorerConfig &config,
                             const sampling::TraceCheckpointer &checkpoints)
    : config_(config), checkpoints_(checkpoints)
{
    fatal_if(config.horizons.empty(), "ExplorerChain: no horizons");
    fatal_if(config.horizons.size() > 4,
             "ExplorerChain: the paper uses at most four Explorers");
    for (std::size_t i = 1; i < config.horizons.size(); ++i) {
        fatal_if(config.horizons[i] <= config.horizons[i - 1],
                 "ExplorerChain: horizons must be strictly increasing");
    }
}

void
ExplorerChain::exploreGroup(std::vector<GroupExploreCell> &cells,
                            InstCount detailed_start) const
{
    std::vector<std::vector<Addr>> remaining(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        remaining[i] = cells[i].keys;

    WindowLineCache cache;
    constexpr InstCount chunk = 4096;
    std::array<Addr, chunk> lines;

    for (std::size_t k = 0; k < config_.horizons.size(); ++k) {
        // A cell participates while it still has unresolved keys —
        // the solo engagement rule, evaluated per cell.
        std::vector<std::size_t> parts;
        for (std::size_t i = 0; i < cells.size(); ++i)
            if (!remaining[i].empty())
                parts.push_back(i);
        if (parts.empty())
            break;

        const InstCount horizon = config_.horizons[k];
        const InstCount window_start =
            detailed_start >= horizon ? detailed_start - horizon : 0;
        const InstCount window = detailed_start - window_start;
        // Explorer-1 profiles functionally (gem5 atomic); later
        // Explorers use virtualized directed profiling with watchpoint
        // traps (§3.3).
        const bool virtualized = k > 0;

        const bool have_cache = cache.valid;
        const InstCount fresh_end =
            have_cache ? cache.start : detailed_start;
        const InstCount fresh = fresh_end - window_start;

        std::vector<profiling::DirectedProfiler> dps(parts.size());
        std::vector<double> dp_ns(parts.size(), 0.0);
        for (std::size_t p = 0; p < parts.size(); ++p) {
            ExplorerResult &res = cells[parts[p]].result;
            res.engaged = std::max(res.engaged, unsigned(k + 1));
            res.window_insts[k] = window;
            dps[p].begin(remaining[parts[p]], virtualized);
        }

        // The vicinity sampler is seeded from the shared trace and
        // window only, so every participant would compute the same
        // stream: run it once and fold it into each of them.
        profiling::VicinitySampler vicinity(
            config_.vicinityPeriod(k),
            config_.seed + detailed_start + k * 0x9e37);
        vicinity.beginWindow(virtualized);

        // Memory instructions are typically 20-40% of the stream;
        // reserving half avoids regrowth without overcommitting.
        std::vector<Addr> fresh_lines;
        if (fresh > 0)
            fresh_lines.reserve(std::size_t(fresh / 2));
        double shared_ns = 0.0; // decode + line-cache maintenance
        double vicinity_ns = 0.0;
        RefCount mem_refs = 0;

        // Decode the fresh prefix once, fanning each chunk out to
        // every participant's profiler; replay the nested-window
        // suffix from the cached line stream (see WindowLineCache).
        // The profilers and the vicinity sampler are independent
        // observers of the same reference stream, so sweeping a dense
        // chunk of lines through each in turn is result-identical to
        // interleaving them per access, and costs a handful of clock
        // reads per chunk instead of per access.
        if (fresh > 0) {
            auto trace = checkpoints_.at(window_start);
            for (InstCount done = 0; done < fresh;) {
                const InstCount n = std::min(chunk, fresh - done);
                double t0 = profiling::nowNs();
                const InstCount m = trace->memLines(lines.data(), n);
                fresh_lines.insert(fresh_lines.end(), lines.data(),
                                   lines.data() + m);
                shared_ns += profiling::nowNs() - t0;
                for (std::size_t p = 0; p < dps.size(); ++p) {
                    t0 = profiling::nowNs();
                    dps[p].observeAll(lines.data(), std::size_t(m));
                    dp_ns[p] += profiling::nowNs() - t0;
                }
                t0 = profiling::nowNs();
                vicinity.observeAll(lines.data(), std::size_t(m));
                vicinity_ns += profiling::nowNs() - t0;
                mem_refs += m;
                done += n;
            }
        }
        if (have_cache && !cache.lines.empty()) {
            for (std::size_t p = 0; p < dps.size(); ++p) {
                const double t0 = profiling::nowNs();
                dps[p].observeAll(cache.lines.data(),
                                  cache.lines.size());
                dp_ns[p] += profiling::nowNs() - t0;
            }
            const double t0 = profiling::nowNs();
            vicinity.observeAll(cache.lines.data(), cache.lines.size());
            vicinity_ns += profiling::nowNs() - t0;
            mem_refs += cache.lines.size();
        }

        vicinity.endWindow();

        // Shared decode and vicinity costs are split evenly across the
        // window's participants: per-cell numbers are attributions,
        // but their sum equals the work actually done.
        const double share = 1.0 / double(parts.size());
        for (std::size_t p = 0; p < parts.size(); ++p) {
            ExplorerResult &res = cells[parts[p]].result;
            res.timing.note(profiling::HotPhase::ExplorerReplay,
                            shared_ns * share + dp_ns[p], window);
            res.timing.note(profiling::HotPhase::Vicinity,
                            vicinity_ns * share, mem_refs);
            remaining[parts[p]] =
                foldWindow(res, k, dps[p].end(), vicinity);
        }

        if (have_cache)
            fresh_lines.insert(fresh_lines.end(), cache.lines.begin(),
                               cache.lines.end());
        cache.lines = std::move(fresh_lines);
        cache.start = window_start;
        cache.valid = true;
    }

    for (std::size_t i = 0; i < cells.size(); ++i)
        cells[i].result.unresolved = std::move(remaining[i]);
}

} // namespace delorean::core
