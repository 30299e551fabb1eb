#include "suite/workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "base/random.hh"
#include "batch/plan.hh"
#include "batch/runner.hh"
#include "core/parallel.hh"
#include "suite/services.hh"
#include "workload/spec_profiles.hh"
#include "workload/trace_io.hh"
#include "workload/trace_registry.hh"

namespace stackbench
{

using namespace delorean;
using service::ServiceClient;
using service::ServiceError;

// ------------------------------------------------------------ inputs

Sizes
Sizes::smoke()
{
    Sizes z;
    z.setups = 1;
    z.sweep_llcs = {"2MiB", "4MiB"};
    z.sweep_schedule = "spacing=100000 regions=2";
    z.hot_profiles = {"bzip2", "gamess"};
    z.llcs = {"1MiB", "2MiB"};
    z.repls = {"lru", "random"};
    z.hot_schedule = "spacing=100000 regions=2";
    z.miss_every = 4;
    z.checked_cells = 4;
    z.stream_spacing = 100000;
    z.stream_windows = 3;
    z.probe_repeats = 3;
    return z;
}

namespace
{

/** The generator of independent choice @p stream (1, 2, ...) of @p seed. */
Rng
seededRng(std::uint64_t seed, unsigned stream)
{
    return Rng(seed * 16 + stream);
}

template <class T>
void
shuffle(std::vector<T> &items, Rng &rng)
{
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.nextBounded(i)]);
}

/** 0, 1, ..., n - 1. */
std::vector<std::size_t>
indices(std::size_t n)
{
    std::vector<std::size_t> v(n);
    std::iota(v.begin(), v.end(), 0);
    return v;
}

} // namespace

std::string
hotManifest(const Sizes &sizes)
{
    std::string text;
    for (const auto &profile : sizes.hot_profiles)
        text += "workload " + profile + "\n";
    for (const auto &llc : sizes.llcs)
        for (const auto &repl : sizes.repls)
            text += "config c" + llc + "_" + repl + " llc=" + llc +
                    " repl=" + repl + "\n";
    return text + "schedule s " + sizes.hot_schedule +
           "\nmethods delorean\n";
}

std::vector<std::string>
missManifests(const Sizes &sizes, std::uint64_t seed)
{
    std::vector<std::string> profiles;
    for (const auto &profile : workload::specBenchmarkNames())
        if (std::find(sizes.hot_profiles.begin(), sizes.hot_profiles.end(),
                      profile) == sizes.hot_profiles.end())
            profiles.push_back(profile);
    std::vector<std::string> configs;
    for (const auto &llc : sizes.llcs)
        for (const auto &repl : sizes.repls)
            configs.push_back("llc=" + llc + " repl=" + repl);

    // A miss costs 27-84 ms by profile and up to 25% more by config.
    // Every round visits each profile once and spreads the configs
    // evenly, so a run's misses cost the same whatever the seed and
    // wherever its time box ends.
    Rng rng = seededRng(seed, 1);
    auto shifts = indices(configs.size());
    auto order = indices(profiles.size());
    shuffle(shifts, rng);
    std::vector<std::string> pool;
    for (const std::size_t shift : shifts) {
        shuffle(order, rng);
        for (const std::size_t p : order)
            pool.push_back("workload " + profiles[p] + "\nconfig c " +
                           configs[(p + shift) % configs.size()] +
                           "\nschedule s " + sizes.hot_schedule + "\n");
    }
    return pool;
}

std::string
sweepManifest(const Sizes &sizes, const std::vector<std::string> &profiles)
{
    std::string text;
    for (const auto &profile : profiles)
        text += "workload " + profile + "\n";
    for (const auto &llc : sizes.sweep_llcs)
        text += "config l" + llc + " llc=" + llc + "\n";
    return text + "schedule s " + sizes.sweep_schedule +
           "\nmethods delorean\n";
}

std::string
streamDirectives(const Sizes &sizes)
{
    return "config c llc=2MiB\nschedule s spacing=" +
           std::to_string(sizes.stream_spacing) +
           " regions=" + std::to_string(sizes.stream_windows) + "\n";
}

const std::vector<std::string> &
endToEndMetrics()
{
    static const std::vector<std::string> names = {
        "setup_s",      "sim_minsts_per_s", "light_p50_ms",
        "light_tail_ms", "heavy_p50_ms",    "heavy_tail_ms",
        "cpi_err_pct",  "max_rss_mb"};
    return names;
}

// ------------------------------------------------------------ helpers

namespace
{

/**
 * Run @p make Sizes::setups times, each into a fresh directory, and
 * keep the last environment; setup_s is the median. Earlier ones are
 * torn down and deleted untimed.
 */
template <class Env>
std::unique_ptr<Env>
setUp(Context &ctx, Samples &times,
      const std::function<std::unique_ptr<Env>(const std::string &)> &make)
{
    std::unique_ptr<Env> env;
    std::string previous;
    for (unsigned k = 0; k < std::max(1u, ctx.sizes.setups); ++k) {
        env.reset();
        if (!previous.empty())
            std::filesystem::remove_all(previous);
        previous = ctx.dir + "/setup" + std::to_string(k);
        freshDir(previous);
        const double start = nowSeconds();
        env = make(previous);
        times.add(nowSeconds() - start);
    }
    return env;
}

/**
 * Peak resident memory of this process so far, in MiB. Read when the
 * timed phase ends, so the output checks, which run on every core,
 * do not count.
 */
double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** The output checks' references: runCell of each of @p cells, on
 *  every core. */
std::vector<sampling::MethodResult>
runCells(const std::vector<batch::BatchCell> &cells)
{
    return core::parallelMap(cells.size(), 0, [&](std::size_t i) {
        return batch::BatchRunner::runCell(cells[i]);
    });
}

/** @p cell under SMARTS: the accuracy reference. */
batch::BatchCell
smartsCell(batch::BatchCell cell)
{
    cell.method = "smarts";
    return cell;
}

/** |CPI error| of @p result against @p reference, in percent. */
double
cpiErrorPct(const sampling::MethodResult &result,
            const sampling::MethodResult &reference)
{
    return 100.0 * std::fabs(result.cpi() - reference.cpi()) /
           reference.cpi();
}

/**
 * The median and the tail of @p seconds. The tail is p90 everywhere:
 * rarer percentiles follow the host's bursts, not the program, and
 * spread past the bounds between runs on a shared host.
 */
void
addLatencies(Outcome &out, const char *prefix, const Samples &seconds)
{
    out.add(std::string(prefix) + "_p50_ms", seconds.median() * 1e3, "ms",
            seconds.size());
    out.add(std::string(prefix) + "_tail_ms", seconds.quantile(0.9) * 1e3,
            "ms", seconds.size());
}

std::uint64_t
scheduleInsts(const std::string &manifest)
{
    const auto plan = batch::BatchPlan::fromManifestText(manifest, "insts");
    return plan.cells().front().config.schedule.totalInstructions();
}

} // namespace

// ------------------------------------------------------------ sweep_cold

Outcome
runSweepCold(Context &ctx)
{
    Outcome out;
    const Sizes &z = ctx.sizes;
    const auto plan = batch::BatchPlan::fromManifestText(
        sweepManifest(z, sweep_profiles), "sweep");
    const std::size_t cells = plan.cells().size();
    batch::BatchOptions opt;
    opt.threads = 1;

    // Set-up: expand the plan and run it once on a fresh cache, the
    // untimed warm-up iteration.
    struct Env
    {
        std::string dir;
    };
    std::vector<sampling::MethodResult> first;
    Samples setup_s;
    const auto env = setUp<Env>(ctx, setup_s, [&](const std::string &dir) {
        auto warm = batch::BatchPlan::fromManifestText(
            sweepManifest(z, sweep_profiles), "sweep");
        batch::BatchOptions o = opt;
        o.cache_dir = dir + "/cache";
        const auto report = batch::BatchRunner::run(warm, o);
        std::vector<sampling::MethodResult> results;
        for (const auto &outcome : report.outcomes)
            results.push_back(outcome.result);
        out.check(report.executed == cells &&
                      (first.empty() || results == first),
                  "warm-up sweeps differ");
        first = std::move(results);
        return std::make_unique<Env>(Env{dir});
    });

    // With threads=1 the 9-cell run executes its three co-scheduled
    // units one after another, so an iteration runs them as three
    // one-workload sweeps on one fresh cache: each is the light
    // request, and their sum the heavy one, the cold 9-cell sweep.
    std::vector<batch::BatchPlan> units;
    for (const auto &profile : sweep_profiles)
        units.push_back(batch::BatchPlan::fromManifestText(
            sweepManifest(z, {profile}), "unit"));
    const std::size_t per_unit = z.sweep_llcs.size();
    double insts = 0.0;
    for (const auto &cell : plan.cells())
        insts += double(cell.config.schedule.totalInstructions());

    Samples unit_s, sweep_s, minsts;
    const double end = nowSeconds() + ctx.seconds;
    for (unsigned iter = 0; iter == 0 || nowSeconds() < end; ++iter) {
        Spans::Scope span(ctx.spans, "iteration", iter + 1);
        opt.cache_dir = env->dir + "/cold";
        freshDir(opt.cache_dir);
        double busy = 0.0;
        for (std::size_t u = 0; u < units.size(); ++u) {
            const double start = nowSeconds();
            batch::BatchReport report;
            {
                Spans::Scope s(ctx.spans, "batch.run");
                report = batch::BatchRunner::run(units[u], opt);
            }
            const double seconds = nowSeconds() - start;
            unit_s.add(seconds);
            busy += seconds;
            bool same = report.executed == per_unit;
            for (std::size_t i = 0; same && i < per_unit; ++i)
                same = report.outcomes[i].result == first[u * per_unit + i];
            out.check(same, "a cold " + sweep_profiles[u] +
                                " sweep differs from the set-up sweep");
        }
        sweep_s.add(busy);
        minsts.add(insts / busy / 1e6);
    }
    const double rss_mb = peakRssMb();

    // Output checks (untimed): every cell against a solo runCell, and
    // the accuracy of every cell against SMARTS.
    std::vector<batch::BatchCell> check = plan.cells();
    for (const auto &cell : plan.cells())
        check.push_back(smartsCell(cell));
    const auto refs = runCells(check);
    Samples err;
    for (std::size_t i = 0; i < cells; ++i) {
        if (!(refs[i] == first[i]))
            out.fail("sweep cell " + std::to_string(i) +
                     " differs from a solo runCell");
        err.add(cpiErrorPct(first[i], refs[cells + i]));
    }

    out.add("setup_s", setup_s.median(), "s", setup_s.size());
    out.add("sim_minsts_per_s", minsts.median(), "Minsts/s", minsts.size());
    addLatencies(out, "light", unit_s);
    addLatencies(out, "heavy", sweep_s);
    out.add("cpi_err_pct", err.mean(), "%", err.size());
    out.add("max_rss_mb", rss_mb, "MiB", 1);
    return out;
}

// ------------------------------------------------------------ the mixes

namespace
{

/**
 * submit_mix and fleet_mix: the same seeded request sequence against
 * whichever server @p start brings up. Blocks of Sizes::miss_every
 * requests each hold exactly one one-cell miss at a seeded position;
 * the rest resubmit the cached hot sweep.
 */
template <class Server>
Outcome
runMix(Context &ctx,
       const std::function<std::unique_ptr<Server>(const std::string &)>
           &start)
{
    Outcome out;
    const Sizes &z = ctx.sizes;
    const std::string hot = hotManifest(z);
    const auto hot_plan = batch::BatchPlan::fromManifestText(hot, "hot");
    const std::size_t hot_cells = hot_plan.cells().size();

    // Set-up: server start plus a cold SUBMIT→done of the hot sweep.
    Samples setup_s;
    const auto server =
        setUp<Server>(ctx, setup_s, [&](const std::string &dir) {
            auto s = start(dir);
            ServiceClient client(s->socket());
            const auto r = request(client, hot, ctx.spans, 0);
            out.check(std::string(r.status.state()) == "done" &&
                          r.status.cells == hot_cells,
                      "cold hot-sweep job ended " +
                          std::string(r.status.state()));
            return s;
        });

    const auto misses = missManifests(z, ctx.seed);
    const double miss_insts = double(scheduleInsts(misses.front()));
    Rng positions = seededRng(ctx.seed, 2);
    ServiceClient client(server->socket());

    Samples hit_s, miss_s;
    std::size_t next_miss = 0;
    std::uint64_t miss_slot = 0;
    const double begin = nowSeconds();
    const double end = begin + ctx.seconds;
    for (std::uint64_t req = 0;; ++req) {
        if (req % z.miss_every == 0) {
            if ((req > 0 && nowSeconds() >= end) ||
                next_miss == misses.size())
                break;
            miss_slot = positions.nextBounded(z.miss_every);
        }
        const bool miss = req % z.miss_every == miss_slot;
        const std::string &manifest = miss ? misses[next_miss++] : hot;
        try {
            const auto r = request(client, manifest, ctx.spans, req + 1);
            const std::size_t want = miss ? 1 : hot_cells;
            out.check(std::string(r.status.state()) == "done" &&
                          r.status.cells == want,
                      "request " + std::to_string(req) + " ended " +
                          r.status.state() +
                          (r.status.first_error.empty()
                               ? ""
                               : ": " + r.status.first_error));
            (miss ? miss_s : hit_s).add(r.seconds);
        } catch (const ServiceError &e) {
            out.check(false, "request " + std::to_string(req) + ": " +
                                 e.what());
        }
    }
    const double wall = nowSeconds() - begin;
    const double rss_mb = peakRssMb();

    // Output checks (untimed): seeded cells fetched through RESULT
    // against a solo runCell, and the hot sweep's llcs[1]/repls[0]
    // cells against SMARTS.
    std::vector<batch::BatchCell> candidates = hot_plan.cells();
    for (std::size_t i = 0; i < next_miss; ++i)
        candidates.push_back(
            batch::BatchPlan::fromManifestText(misses[i], "miss")
                .cells()
                .front());
    Rng pick = seededRng(ctx.seed, 4);
    std::vector<batch::BatchCell> checked;
    while (checked.size() < z.checked_cells && !candidates.empty()) {
        const std::size_t i = pick.nextBounded(candidates.size());
        checked.push_back(candidates[i]);
        candidates.erase(candidates.begin() + std::ptrdiff_t(i));
    }
    const std::string accuracy_config = "c" + z.llcs[1] + "_" + z.repls[0];
    std::vector<batch::BatchCell> accuracy;
    for (const auto &cell : hot_plan.cells())
        if (cell.config_name == accuracy_config)
            accuracy.push_back(cell);
    std::vector<batch::BatchCell> references = checked;
    for (const auto &cell : accuracy)
        references.push_back(smartsCell(cell));
    const auto refs = runCells(references);

    for (std::size_t i = 0; i < checked.size(); ++i) {
        const auto &cell = checked[i];
        try {
            if (!(client.result(cell.key) == refs[i]))
                out.fail(cell.workload + "/" + cell.config_name +
                         ": RESULT differs from a solo runCell");
        } catch (const ServiceError &e) {
            out.fail(cell.workload + ": " + e.what());
        }
    }
    Samples err;
    for (std::size_t i = 0; i < accuracy.size(); ++i) {
        try {
            err.add(cpiErrorPct(client.result(accuracy[i].key),
                                refs[checked.size() + i]));
        } catch (const ServiceError &e) {
            out.fail(accuracy[i].workload + ": " + e.what());
        }
    }

    out.add("setup_s", setup_s.median(), "s", setup_s.size());
    out.add("sim_minsts_per_s",
            double(miss_s.size()) * miss_insts / wall / 1e6, "Minsts/s",
            miss_s.size());
    addLatencies(out, "light", hit_s);
    addLatencies(out, "heavy", miss_s);
    out.add("cpi_err_pct", err.mean(), "%", err.size());
    out.add("max_rss_mb", rss_mb, "MiB", 1);
    return out;
}

} // namespace

Outcome
runSubmitMix(Context &ctx)
{
    return runMix<Daemon>(ctx, [](const std::string &dir) {
        return std::make_unique<Daemon>(dir);
    });
}

Outcome
runFleetMix(Context &ctx)
{
    return runMix<Fleet>(ctx, [](const std::string &dir) {
        return std::make_unique<Fleet>(dir, 2);
    });
}

// ------------------------------------------------------------ stream_live

Outcome
runStreamLive(Context &ctx)
{
    Outcome out;
    const Sizes &z = ctx.sizes;
    const std::string directives = streamDirectives(z);
    const std::uint64_t records = z.stream_spacing * z.stream_windows;
    // Cuts land up to this many records past a window boundary.
    constexpr std::uint64_t jitter_records = 1000;

    // Set-up: daemon start plus recording every streamed trace.
    struct Env
    {
        std::unique_ptr<Daemon> daemon;
        std::vector<std::string> traces;
    };
    Samples setup_s;
    const auto env = setUp<Env>(ctx, setup_s, [&](const std::string &dir) {
        auto e = std::make_unique<Env>();
        e->daemon = std::make_unique<Daemon>(dir);
        for (const auto &profile : stream_profiles) {
            auto source = workload::makeTrace(profile);
            e->traces.push_back(dir + "/" + profile + ".dlt");
            workload::recordTrace(*source, records, e->traces.back());
        }
        return e;
    });

    // The offline plan of each trace: its delorean cell's key is what
    // CLOSE must return, its smarts cell the accuracy reference.
    std::vector<batch::BatchPlan> offline;
    for (const auto &trace : env->traces)
        offline.push_back(batch::BatchPlan::fromManifestText(
            "workload file:" + trace + "\n" + directives +
                "methods delorean,smarts\n",
            "offline"));

    Rng jitter = seededRng(ctx.seed, 3);
    ServiceClient client(env->daemon->socket());
    Samples append_s, close_s;
    std::uint64_t windows = 0;
    // One buffer for every chunk, so the client's own allocations do
    // not move the peak resident memory from run to run.
    std::string chunk;
    const double begin = nowSeconds();
    const double end = begin + ctx.seconds;
    // Every trace streams at least once: the checks below fetch each.
    for (std::uint64_t s = 0; s < env->traces.size() || nowSeconds() < end;
         ++s) {
        const std::size_t t = s % env->traces.size();
        const std::string &trace = env->traces[t];
        const std::uint64_t size = std::filesystem::file_size(trace);
        const std::uint64_t header = size - records * 32;
        // Append w ends a seeded 0..jitter bytes past window w's last
        // record, so every append completes exactly one window and cuts
        // a record in two.
        std::vector<std::uint64_t> cuts;
        for (unsigned w = 0; w + 1 < z.stream_windows; ++w)
            cuts.push_back(header + 32 * z.stream_spacing * (w + 1) +
                           jitter.nextBounded(32 * jitter_records));
        cuts.push_back(size);

        Spans::Scope span(ctx.spans, "stream", s + 1);
        std::ifstream in(trace, std::ios::binary);
        try {
            std::uint64_t id = 0;
            {
                Spans::Scope o(ctx.spans, "client.stream_open");
                id = client.streamOpen(directives);
            }
            ++out.attempted;
            std::uint64_t at = 0;
            for (unsigned w = 0; w < z.stream_windows; ++w) {
                {
                    Spans::Scope r(ctx.spans, "bench.read_chunk");
                    chunk.resize(cuts[w] - at);
                    if (!in.read(chunk.data(), std::streamsize(chunk.size())))
                        throw std::runtime_error("short read from " + trace);
                }
                at = cuts[w];
                const double start = nowSeconds();
                ServiceClient::StreamAppendInfo info;
                {
                    Spans::Scope a(ctx.spans, "client.stream_append");
                    info = client.streamAppend(id, chunk);
                }
                append_s.add(nowSeconds() - start);
                out.check(info.windows_fed == w + 1 && info.received == at,
                          "append " + std::to_string(w) + " fed " +
                              std::to_string(info.windows_fed) + " windows");
                ServiceClient::StreamStatus st;
                {
                    Spans::Scope p(ctx.spans, "client.stream_status");
                    st = client.streamStatus(id);
                }
                out.check(st.windows_fed == w + 1,
                          "status after append " + std::to_string(w) +
                              " reports " + std::to_string(st.windows_fed) +
                              " windows");
            }
            const double start = nowSeconds();
            ServiceClient::StreamCloseInfo closed;
            {
                Spans::Scope c(ctx.spans, "client.stream_close");
                closed = client.streamClose(id);
            }
            close_s.add(nowSeconds() - start);
            windows += closed.windows;
            out.check(closed.key == offline[t].cells()[0].key &&
                          closed.windows == z.stream_windows,
                      "stream " + std::to_string(s) +
                          " closed under a key other than the offline one");
        } catch (const ServiceError &e) {
            out.check(false, "stream " + std::to_string(s) + ": " + e.what());
        }
    }
    const double wall = nowSeconds() - begin;
    const double rss_mb = peakRssMb();

    // Output checks (untimed): one closed stream per trace against the
    // offline runCell, and its accuracy against SMARTS.
    std::vector<batch::BatchCell> check;
    for (const auto &plan : offline)
        check.insert(check.end(), plan.cells().begin(), plan.cells().end());
    const auto refs = runCells(check);
    Samples err;
    for (std::size_t i = 0; i < check.size(); i += 2) {
        const auto &cell = check[i];
        try {
            const auto streamed = client.result(cell.key);
            if (!(streamed == refs[i]))
                out.fail(cell.workload +
                         ": streamed result differs from offline runCell");
            err.add(cpiErrorPct(streamed, refs[i + 1]));
        } catch (const ServiceError &e) {
            out.fail(cell.workload + ": " + e.what());
        }
    }

    out.add("setup_s", setup_s.median(), "s", setup_s.size());
    out.add("sim_minsts_per_s",
            double(windows) * double(z.stream_spacing) / wall / 1e6,
            "Minsts/s", windows);
    addLatencies(out, "light", append_s);
    addLatencies(out, "heavy", close_s);
    out.add("cpi_err_pct", err.mean(), "%", err.size());
    out.add("max_rss_mb", rss_mb, "MiB", 1);
    return out;
}

} // namespace stackbench
