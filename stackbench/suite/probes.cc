/**
 * @file
 * The per-layer probes of a traced run. Each one times calls into a
 * layer's public functions from the benchmark's side, so no file
 * under src/ changes; README.md lists which end-to-end metric each
 * one should move, on which workload.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "batch/plan.hh"
#include "batch/result_cache.hh"
#include "batch/result_io.hh"
#include "batch/runner.hh"
#include "core/session.hh"
#include "profiling/hotpath.hh"
#include "suite/services.hh"
#include "suite/workloads.hh"
#include "workload/trace_io.hh"
#include "workload/trace_registry.hh"

namespace stackbench
{

using namespace delorean;
using service::ServiceClient;
using service::ServiceError;

const std::vector<std::string> &
perLayerMetrics()
{
    static const std::vector<std::string> names = {
        "sampling.prepare_ms",      "core.window_p50_ms",
        "core.window_p95_ms",       "core.finish_ms",
        "core.scout_ms",            "core.explorer_replay_ms",
        "core.vicinity_ms",         "core.statstack_solve_ms",
        "core.analyze_ms",          "core.replay_minsts_per_s",
        "core.unattributed_pct",    "core.solo_cell_ms",
        "core.group_unit_ms",       "core.miss_cell_ms",
        "core.file_window_p50_ms",  "core.traps",
        "core.keys_explored",       "batch.plan_hot_us",
        "batch.plan_file_ms",       "batch.load_us",
        "batch.load_bytes_us",      "batch.store_us",
        "service.submit_rtt_us",    "service.status_rtt_us",
        "service.polls_per_hit",    "service.hit_one_p50_us",
        "service.miss_overhead_ms", "service.append_overhead_ms",
        "service.stream_status_rtt_us", "service.hit_frac",
        "fleet.submit_rtt_us",      "fleet.lease_idle_rtt_us",
        "fleet.lease_rtt_us",       "fleet.run_unit_ms",
        "fleet.complete_rtt_us",    "fleet.pickup_wait_ms",
        "fleet.leases_granted",     "fleet.leases_expired",
        "fleet.results_discarded",  "fleet.lease_useful_frac",
        "workload.record_ms",       "trace.overhead_pct"};
    return names;
}

namespace
{

/** Seconds @p fn takes, recorded as span @p name. */
template <class Fn>
double
timed(Spans &spans, const char *name, Fn &&fn)
{
    Spans::Scope span(spans, name);
    const double start = nowSeconds();
    fn();
    return nowSeconds() - start;
}

const batch::BatchCell &
onlyCell(const batch::BatchPlan &plan)
{
    return plan.cells().front();
}

} // namespace

Outcome
runProbes(Context &ctx)
{
    Outcome out;
    const Sizes &z = ctx.sizes;
    Spans &spans = ctx.spans;
    const unsigned n = std::max(1u, z.probe_repeats);
    const auto ms = [](double s) { return s * 1e3; };
    const auto us = [](double s) { return s * 1e6; };

    // ---- sampling + core: one sweep cell per profile replayed solo,
    // window by window, through the resumable session.
    const auto sweep = batch::BatchPlan::fromManifestText(
        sweepManifest(z, sweep_profiles), "sweep");
    const std::size_t per_profile = z.sweep_llcs.size();
    Samples window_s;
    double prepare_s = 0.0, finish_s = 0.0, replay_wall_s = 0.0;
    profiling::PhaseTimings phases;
    std::uint64_t traps = 0, keys_explored = 0;
    std::vector<sampling::MethodResult> replayed;
    for (std::size_t i = 0; i < sweep.cells().size(); i += per_profile) {
        const auto &cell = sweep.cells()[i];
        Spans::Scope span(spans, "core.solo_replay");
        const double start = nowSeconds();
        const auto trace = workload::makeTrace(cell.workload);
        sampling::TraceCheckpointer checkpoints(*trace);
        prepare_s += timed(spans, "sampling.prepare", [&] {
            checkpoints.prepare(
                core::DeloreanMethod::checkpointPositions(cell.config));
        });
        core::DeloreanSession session(cell.config);
        for (unsigned r = 0; r < session.windowsTotal(); ++r)
            window_s.add(timed(spans, "core.feed_window", [&] {
                session.feedWindows(*trace, checkpoints, 1);
            }));
        sampling::MethodResult result;
        finish_s += timed(spans, "core.finish",
                          [&] { result = session.finish(); });
        replay_wall_s += nowSeconds() - start;
        phases.merge(result.cost.measured());
        traps += result.traps;
        keys_explored += result.keys_explored;
        replayed.push_back(std::move(result));
    }
    const double cells = double(replayed.size());
    out.add("sampling.prepare_ms", ms(prepare_s / cells), "ms",
            replayed.size());
    out.add("core.window_p50_ms", ms(window_s.median()), "ms",
            window_s.size());
    out.add("core.window_p95_ms", ms(window_s.quantile(0.95)), "ms",
            window_s.size());
    out.add("core.finish_ms", ms(finish_s / cells), "ms", replayed.size());
    for (std::size_t p = 0; p < profiling::hot_phase_count; ++p)
        out.add(std::string("core.") +
                    profiling::hotPhaseName(profiling::HotPhase(p)) + "_ms",
                phases.ns[p] / cells / 1e6, "ms", phases.calls[p]);
    out.add("core.replay_minsts_per_s",
            phases.itemsPerSecond(profiling::HotPhase::ExplorerReplay) / 1e6,
            "Minsts/s",
            phases.calls[std::size_t(profiling::HotPhase::ExplorerReplay)]);
    const double explained = prepare_s + phases.totalNs() / 1e9 + finish_s;
    out.add("core.unattributed_pct",
            100.0 * (1.0 - explained / replay_wall_s), "%", replayed.size());
    out.add("core.traps", double(traps), "count", replayed.size());
    out.add("core.keys_explored", double(keys_explored), "count",
            replayed.size());

    // ---- the solo and group-3 shapes of the same cells.
    const auto &lead = sweep.cells().front();
    sampling::MethodResult solo;
    const double solo_s = timed(spans, "batch.run_cell", [&] {
        solo = batch::BatchRunner::runCell(lead);
    });
    out.check(solo == replayed.front(),
              "session replay differs from runCell on " + lead.workload);
    std::vector<const batch::BatchCell *> unit;
    for (std::size_t i = 0; i < per_profile; ++i)
        unit.push_back(&sweep.cells()[i]);
    std::vector<sampling::MethodResult> grouped;
    const double unit_s = timed(spans, "batch.run_unit", [&] {
        grouped = batch::BatchRunner::runUnit(unit);
    });
    out.check(grouped.front() == solo,
              "co-scheduled unit differs from runCell on " + lead.workload);
    out.add("core.solo_cell_ms", ms(solo_s), "ms", 1);
    out.add("core.group_unit_ms", ms(unit_s), "ms", 1);

    // ---- miss-shaped cells: timed directly here, then through the
    // daemon (service overhead) and through fleet workers (pickup).
    const auto pool = missManifests(z, ctx.seed);
    const auto missCell = [&](std::size_t i) {
        return batch::BatchPlan::fromManifestText(pool[i], "miss");
    };
    constexpr std::size_t service_misses = 3, scripted = 3, fleet_misses = 6;
    std::vector<double> direct_s;
    Samples miss_cell_s;
    for (std::size_t i = 0; i < service_misses + fleet_misses; ++i) {
        const std::size_t p = i < service_misses ? i : i + scripted;
        const auto plan = missCell(p);
        direct_s.push_back(timed(spans, "batch.run_cell", [&] {
            (void)batch::BatchRunner::runCell(onlyCell(plan));
        }));
        miss_cell_s.add(direct_s.back());
    }
    out.add("core.miss_cell_ms", ms(miss_cell_s.median()), "ms",
            miss_cell_s.size());

    // ---- workload + file-backed core: record a stream_live trace,
    // feed it window by window, and digest it in a plan.
    const std::string trace = ctx.dir + "/probe.dlt";
    const std::uint64_t records = z.stream_spacing * z.stream_windows;
    const double record_s = timed(spans, "workload.record_trace", [&] {
        auto source = workload::makeTrace(stream_profiles.front());
        workload::recordTrace(*source, records, trace);
    });
    out.add("workload.record_ms", ms(record_s), "ms", 1);
    const std::string file_manifest =
        "workload file:" + trace + "\n" + streamDirectives(z);
    Samples plan_file_s;
    std::unique_ptr<batch::BatchPlan> file_plan;
    for (unsigned i = 0; i < std::min(n, 3u); ++i)
        plan_file_s.add(timed(spans, "batch.plan_file", [&] {
            file_plan = std::make_unique<batch::BatchPlan>(
                batch::BatchPlan::fromManifestText(file_manifest, "file"));
        }));
    out.add("batch.plan_file_ms", ms(plan_file_s.median()), "ms",
            plan_file_s.size());
    Samples file_window_s;
    {
        core::DeloreanSession session(onlyCell(*file_plan).config);
        const workload::FileTrace source(trace);
        for (unsigned w = 0; w < z.stream_windows; ++w)
            file_window_s.add(timed(spans, "core.feed_window_file",
                                    [&] { session.feedWindows(source, 1); }));
        out.check(session.finish() ==
                      batch::BatchRunner::runCell(onlyCell(*file_plan)),
                  "file-backed session differs from runCell");
    }
    out.add("core.file_window_p50_ms", ms(file_window_s.median()), "ms",
            file_window_s.size());

    // ---- batch: plan expansion and the result cache.
    const std::string hot = hotManifest(z);
    Samples plan_hot_s;
    for (unsigned i = 0; i < n; ++i)
        plan_hot_s.add(timed(spans, "batch.plan_hot", [&] {
            (void)batch::BatchPlan::fromManifestText(hot, "hot");
        }));
    out.add("batch.plan_hot_us", us(plan_hot_s.median()), "us",
            plan_hot_s.size());
    const auto hot_plan = batch::BatchPlan::fromManifestText(hot, "hot");
    {
        const batch::ResultCache cache(ctx.dir + "/probe-cache");
        Samples store_s, load_s, bytes_s;
        for (unsigned i = 0; i < n; ++i) {
            const auto &key = hot_plan.cells()[i % hot_plan.cells().size()].key;
            store_s.add(timed(spans, "batch.cache_store",
                              [&] { cache.store(key, solo); }));
            std::optional<sampling::MethodResult> loaded;
            load_s.add(timed(spans, "batch.cache_load",
                             [&] { loaded = cache.load(key); }));
            out.check(loaded && *loaded == solo, "cache load round trip");
            bytes_s.add(timed(spans, "batch.cache_load_bytes",
                              [&] { (void)cache.loadBytes(key); }));
        }
        out.add("batch.load_us", us(load_s.median()), "us", load_s.size());
        out.add("batch.load_bytes_us", us(bytes_s.median()), "us",
                bytes_s.size());
        out.add("batch.store_us", us(store_s.median()), "us",
                store_s.size());
    }

    // ---- service: a daemon over a cache already holding the hot sweep.
    const std::string svc = ctx.dir + "/svc";
    {
        batch::BatchOptions opt;
        opt.threads = 2;
        opt.cache_dir = svc + "/cache";
        (void)batch::BatchRunner::run(hot_plan, opt);
    }
    try {
        Daemon daemon(svc);
        ServiceClient client(daemon.socket());
        Samples submit_s, status_s, polls, hit_one_s;
        for (unsigned i = 0; i < n; ++i) {
            const auto r = request(client, hot, spans, i + 1);
            out.check(r.status.failed == 0, "hot request failed");
            submit_s.add(r.submit_s);
            polls.add(double(r.poll_s.size()));
            status_s.add(r.poll_s.median());
        }
        // The hot sweep's first cell on its own: cached, since config
        // names are not part of a cell's key.
        const std::string one = "workload " + z.hot_profiles[0] +
                                "\nconfig c llc=" + z.llcs[0] +
                                " repl=" + z.repls[0] + "\nschedule s " +
                                z.hot_schedule + "\n";
        for (unsigned i = 0; i < n; ++i) {
            const auto r = request(client, one, spans, n + i + 1);
            out.check(r.status.failed == 0, "one-cell hit failed");
            hit_one_s.add(r.seconds);
        }
        Samples overhead_s;
        for (std::size_t i = 0; i < service_misses; ++i) {
            const auto r = request(client, pool[i], spans, 2 * n + i + 1);
            out.check(r.status.failed == 0, "service miss failed");
            overhead_s.add(r.seconds - direct_s[i]);
        }
        out.add("service.submit_rtt_us", us(submit_s.median()), "us",
                submit_s.size());
        out.add("service.status_rtt_us", us(status_s.median()), "us",
                status_s.size());
        out.add("service.polls_per_hit", polls.mean(), "count",
                polls.size());
        out.add("service.hit_one_p50_us", us(hit_one_s.median()), "us",
                hit_one_s.size());
        out.add("service.miss_overhead_ms", ms(overhead_s.median()), "ms",
                overhead_s.size());

        // One stream over the recorded trace, cut at window boundaries.
        Samples append_s, stream_status_s;
        const std::uint64_t size = std::filesystem::file_size(trace);
        std::ifstream in(trace, std::ios::binary);
        std::uint64_t id = 0;
        (void)timed(spans, "client.stream_open",
                    [&] { id = client.streamOpen(streamDirectives(z)); });
        std::uint64_t at = 0;
        for (unsigned w = 0; w < z.stream_windows; ++w) {
            const std::uint64_t cut =
                size - 32 * z.stream_spacing * (z.stream_windows - w - 1);
            std::string chunk(cut - at, '\0');
            in.read(chunk.data(), std::streamsize(chunk.size()));
            at = cut;
            ServiceClient::StreamAppendInfo info;
            append_s.add(timed(spans, "client.stream_append", [&] {
                info = client.streamAppend(id, chunk);
            }));
            out.check(info.windows_fed == w + 1, "probe append fed " +
                                                     std::to_string(
                                                         info.windows_fed));
            stream_status_s.add(timed(spans, "client.stream_status", [&] {
                (void)client.streamStatus(id);
            }));
        }
        ServiceClient::StreamCloseInfo closed;
        (void)timed(spans, "client.stream_close",
                    [&] { closed = client.streamClose(id); });
        out.check(closed.key == onlyCell(*file_plan).key,
                  "probe stream closed under a non-offline key");
        out.add("service.append_overhead_ms",
                ms(append_s.median() - file_window_s.median()), "ms",
                append_s.size());
        out.add("service.stream_status_rtt_us",
                us(stream_status_s.median()), "us", stream_status_s.size());

        const auto stats = client.stats();
        out.add("service.hit_frac",
                double(stats.cells_cached) /
                    double(stats.cells_cached + stats.cells_executed),
                "fraction", stats.cells_cached + stats.cells_executed);
    } catch (const ServiceError &e) {
        out.check(false, std::string("service probes: ") + e.what());
    }

    // ---- fleet: a coordinator over the same cache; first a scripted
    // worker times each step of a lease, then real workers pick up.
    try {
        Fleet fleet(svc, 0);
        ServiceClient client(fleet.socket());
        Samples submit_s, idle_s, status_s;
        for (unsigned i = 0; i < n; ++i) {
            const auto r = request(client, hot, spans, i + 1);
            out.check(r.status.failed == 0, "fleet hot request failed");
            submit_s.add(r.submit_s);
            status_s.add(r.poll_s.median());
        }
        for (unsigned i = 0; i < n; ++i) {
            ServiceClient::LeaseInfo lease;
            idle_s.add(timed(spans, "client.lease_idle",
                             [&] { lease = client.lease("probe"); }));
            out.check(lease.idle, "lease granted with nothing submitted");
        }

        Samples lease_s, run_s, complete_s;
        for (std::size_t i = 0; i < scripted; ++i) {
            Spans::Scope span(spans, "scripted_worker", i + 1);
            const auto info = client.submit(pool[service_misses + i]);
            ServiceClient::LeaseInfo lease;
            lease_s.add(timed(spans, "client.lease",
                              [&] { lease = client.lease("scripted"); }));
            if (lease.idle) {
                out.check(false, "no lease for a submitted miss");
                continue;
            }
            const auto plan =
                batch::BatchPlan::fromManifestText(lease.manifest, "lease");
            std::vector<const batch::BatchCell *> cells;
            for (const std::size_t c : lease.cells)
                cells.push_back(&plan.cells().at(c));
            std::vector<sampling::MethodResult> results;
            run_s.add(timed(spans, "batch.run_unit", [&] {
                results = batch::BatchRunner::runUnit(cells);
            }));
            std::ostringstream payload;
            for (const auto &result : results)
                batch::writeMethodResult(payload, result);
            complete_s.add(timed(spans, "client.complete", [&] {
                (void)client.complete(lease.lease, payload.str());
            }));
            out.check(std::string(client.jobStatus(info.job).state()) ==
                          "done",
                      "scripted lease did not finish its job");
        }

        fleet.startWorkers(2);
        const double path_s = submit_s.median() + lease_s.median() +
                              complete_s.median() + status_s.median();
        Samples pickup_s;
        for (std::size_t i = 0; i < fleet_misses; ++i) {
            const auto r = request(client, pool[service_misses + scripted + i],
                                   spans, 2 * n + i + 1);
            out.check(r.status.failed == 0, "fleet miss failed");
            pickup_s.add(r.seconds - direct_s[service_misses + i] - path_s);
        }
        out.add("fleet.submit_rtt_us", us(submit_s.median()), "us",
                submit_s.size());
        out.add("fleet.lease_idle_rtt_us", us(idle_s.median()), "us",
                idle_s.size());
        out.add("fleet.lease_rtt_us", us(lease_s.median()), "us",
                lease_s.size());
        out.add("fleet.run_unit_ms", ms(run_s.median()), "ms", run_s.size());
        out.add("fleet.complete_rtt_us", us(complete_s.median()), "us",
                complete_s.size());
        out.add("fleet.pickup_wait_ms", ms(pickup_s.median()), "ms",
                pickup_s.size());

        const auto fleet_stats = client.stats().fleet_stats;
        out.add("fleet.leases_granted", double(fleet_stats.leases_granted),
                "count", 1);
        out.add("fleet.leases_expired", double(fleet_stats.leases_expired),
                "count", 1);
        out.add("fleet.results_discarded",
                double(fleet_stats.results_discarded), "count", 1);
        out.add("fleet.lease_useful_frac",
                double(fleet_stats.results_stored) /
                    double(std::max<std::uint64_t>(
                        1, fleet_stats.leases_granted)),
                "fraction", fleet_stats.leases_granted);
    } catch (const ServiceError &e) {
        out.check(false, std::string("fleet probes: ") + e.what());
    }
    return out;
}

} // namespace stackbench
