/**
 * @file
 * delorean_bench: the whole-stack benchmark (README.md).
 *
 *   delorean_bench --workload NAME|all [--seed N] [--seconds S]
 *                  [--trace 0|1] [--chrome FILE] [--json FILE]
 *   delorean_bench --smoke
 *
 * Each workload runs in a forked child, so its peak RSS is its own and
 * no allocator or cache state leaks between workloads; with --trace 1
 * a second child runs the per-layer probes.
 * Stdout gets one `workload.metric value unit n=N` line per metric and,
 * last, one JSON object: {"correct", "attempted", "failed", "metrics"}
 * holding the end-to-end metrics, or with --trace 1 the per-layer
 * ones. --json writes every metric of every workload to FILE (the
 * input of check_benchmark.py); --chrome writes the spans of a traced
 * run as Chrome trace-event JSON (chrome://tracing, Perfetto).
 *
 * --smoke runs every workload and the probes at toy sizes with all
 * output checks on and exits non-zero unless every check passed.
 */

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "suite/services.hh"
#include "suite/workloads.hh"

namespace
{

using namespace stackbench;

struct Workload
{
    const char *name;
    Outcome (*run)(Context &);
};

const std::vector<Workload> workloads = {
    {"sweep_cold", runSweepCold},
    {"submit_mix", runSubmitMix},
    {"stream_live", runStreamLive},
    {"fleet_mix", runFleetMix},
};

/** Children work under here, relative to the working directory. */
const std::string work_dir = "stackbench-work";

struct Options
{
    std::vector<Workload> run;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    bool smoke = false;
    std::string chrome;
    std::string json;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "delorean_bench: %s\n"
                 "usage: delorean_bench --workload NAME|all [--seed N] "
                 "[--seconds S]\n"
                 "                      [--trace 0|1] [--chrome FILE] "
                 "[--json FILE]\n"
                 "       delorean_bench --smoke\n"
                 "workloads:",
                 why);
    for (const auto &w : workloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        const auto number = [&](const std::string &text) {
            char *end = nullptr;
            const double v = std::strtod(text.c_str(), &end);
            if (text.empty() || *end != '\0' || !std::isfinite(v) || v < 0)
                usage(("bad number for " + arg + ": " + text).c_str());
            return v;
        };
        if (arg == "--workload") {
            const std::string name = value();
            have_workload = true;
            for (const auto &w : workloads)
                if (name == "all" || name == w.name)
                    opt.run.push_back(w);
            if (opt.run.empty())
                usage(("unknown workload " + name).c_str());
        } else if (arg == "--seed") {
            opt.seed = std::uint64_t(number(value()));
        } else if (arg == "--seconds") {
            opt.seconds = number(value());
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            opt.trace = v == "1";
        } else if (arg == "--chrome") {
            opt.chrome = value();
        } else if (arg == "--json") {
            opt.json = value();
        } else if (arg == "--smoke") {
            opt.smoke = true;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (opt.smoke) {
        opt.run = workloads;
        opt.trace = true;
        opt.seconds = 0.2;
        if (opt.chrome.empty())
            opt.chrome = "stackbench-smoke-trace.json";
    } else if (!have_workload) {
        usage("--workload is required");
    }
    return opt;
}

/** What a benchmark child reported, plus how it ended. */
struct ChildResult
{
    Outcome outcome;
    bool exited_ok = false;
    std::string spans_file; //!< Chrome event fragment, if traced
};

void
writeOutcome(int fd, const Outcome &out)
{
    std::ostringstream os;
    os.precision(17);
    os << "attempted " << out.attempted << "\nfailed " << out.failed << "\n";
    for (const auto &m : out.metrics)
        os << "metric " << m.name << " " << m.value << " " << m.unit << " "
           << m.n << "\n";
    const std::string text = os.str();
    for (std::size_t at = 0; at < text.size();) {
        const ssize_t n = ::write(fd, text.data() + at, text.size() - at);
        if (n <= 0)
            break;
        at += std::size_t(n);
    }
}

Outcome
parseOutcome(const std::string &text)
{
    Outcome out;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string kind;
        ls >> kind;
        if (kind == "attempted") {
            ls >> out.attempted;
        } else if (kind == "failed") {
            ls >> out.failed;
        } else if (kind == "metric") {
            Metric m;
            ls >> m.name >> m.value >> m.unit >> m.n;
            out.metrics.push_back(m);
        }
    }
    return out;
}

/**
 * Run @p body in a forked child working under @p dir. The child's
 * stdout goes to stderr, so the parent's stdout carries only results.
 * A child still running at @p deadline (nowSeconds()) is killed.
 */
ChildResult
runChild(const std::function<Outcome(Context &)> &body, const Options &opt,
         const std::string &dir, double deadline)
{
    ChildResult result;
    result.spans_file = opt.trace ? dir + ".spans" : "";
    int fds[2];
    if (::pipe(fds) != 0) {
        std::perror("pipe");
        return result;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid < 0) {
        std::perror("fork");
        return result;
    }
    if (pid == 0) {
        ::close(fds[0]);
        ::dup2(2, 1);
        int code = 0;
        try {
            Context ctx;
            ctx.sizes = opt.smoke ? Sizes::smoke() : Sizes{};
            ctx.seed = opt.seed;
            ctx.seconds = opt.seconds;
            ctx.dir = dir;
            freshDir(dir);
            if (opt.trace)
                ctx.spans.enable();
            Outcome out = body(ctx);
            if (opt.trace) {
                std::ofstream os(result.spans_file);
                ctx.spans.writeChromeEvents(os, int(::getpid()), dir);
                for (const auto &layer : ctx.spans.layers())
                    std::fprintf(stderr,
                                 "[span] %-28s n=%-7llu total=%10.3f ms "
                                 "self=%10.3f ms\n",
                                 layer.name.c_str(),
                                 (unsigned long long)layer.count,
                                 layer.total_ns / 1e6, layer.self_ns / 1e6);
            }
            writeOutcome(fds[1], out);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "[stackbench] %s: %s\n", dir.c_str(),
                         e.what());
            code = 3;
        }
        std::error_code ignored;
        std::filesystem::remove_all(dir, ignored);
        std::fflush(stderr);
        ::_exit(code);
    }

    ::close(fds[1]);
    std::string text;
    char buf[4096];
    bool killed = false;
    for (;;) {
        pollfd pfd{fds[0], POLLIN, 0};
        const int left_ms = int(std::max(0.0, deadline - nowSeconds()) * 1e3);
        const int ready = ::poll(&pfd, 1, std::min(left_ms, 1000));
        if (ready > 0) {
            const ssize_t n = ::read(fds[0], buf, sizeof(buf));
            if (n <= 0)
                break;
            text.append(buf, std::size_t(n));
        } else if (ready == 0 && nowSeconds() >= deadline) {
            std::fprintf(stderr, "[stackbench] %s: out of time, killed\n",
                         dir.c_str());
            ::kill(pid, SIGKILL);
            killed = true;
            break;
        }
    }
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    result.exited_ok = !killed && WIFEXITED(status) &&
                       WEXITSTATUS(status) == 0;
    result.outcome = parseOutcome(text);
    return result;
}

const Metric *
findMetric(const Outcome &out, const std::string &name)
{
    for (const auto &m : out.metrics)
        if (m.name == name)
            return &m;
    return nullptr;
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** One workload's combined record. */
struct Record
{
    std::string name;
    Outcome outcome;
    bool ok = true; //!< every child exited cleanly
};

/** `"m": {"value": v, "unit": u[, "n": n]}` pairs for @p names. */
std::string
jsonMetrics(const Outcome &out, const std::vector<std::string> &names,
            bool with_n, const std::string &prefix = "")
{
    std::string json;
    for (const auto &name : names) {
        const Metric *m = findMetric(out, name);
        if (!json.empty())
            json += ", ";
        json += "\"" + prefix + name + "\": {\"value\": " +
                jsonNumber(m->value) + ", \"unit\": \"" + m->unit + "\"";
        if (with_n)
            json += ", \"n\": " + std::to_string(m->n);
        json += "}";
    }
    return json;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    // Budget per workload, probes included: the timed phase plus
    // generous set-up and checks, inside the 180 s a run may take.
    const double budget_s = opt.seconds + 150.0;

    std::vector<Record> records;
    std::vector<std::string> span_files;
    for (const auto &w : opt.run) {
        Record rec;
        rec.name = w.name;
        // A traced workload also reports what recording its spans cost.
        const auto body = [&w](Context &ctx) {
            const double start = nowSeconds();
            Outcome out = w.run(ctx);
            const double wall = nowSeconds() - start;
            const double spans = double(ctx.spans.spans().size());
            if (ctx.spans.enabled())
                out.add("trace.overhead_pct",
                        100.0 * spans * Spans::nsPerSpan() / (wall * 1e9), "%",
                        std::uint64_t(spans));
            return out;
        };
        const double deadline = nowSeconds() + budget_s;
        ChildResult child =
            runChild(body, opt, work_dir + "/" + w.name, deadline);
        rec.ok = child.exited_ok;
        rec.outcome = child.outcome;
        if (opt.trace) {
            span_files.push_back(child.spans_file);
            ChildResult probes = runChild(runProbes, opt,
                                          work_dir + "/" + w.name + "_probes",
                                          deadline);
            rec.ok = rec.ok && probes.exited_ok;
            span_files.push_back(probes.spans_file);
            auto &o = rec.outcome;
            o.attempted += probes.outcome.attempted;
            o.failed += probes.outcome.failed;
            o.metrics.insert(o.metrics.end(), probes.outcome.metrics.begin(),
                             probes.outcome.metrics.end());
        }
        records.push_back(std::move(rec));
    }

    // Every declared metric must be present and finite; anything else
    // is a benchmark bug, not a measurement.
    const auto &declared = opt.trace ? perLayerMetrics() : endToEndMetrics();
    std::vector<std::string> required = endToEndMetrics();
    if (opt.trace)
        required.insert(required.end(), declared.begin(), declared.end());
    bool complete = true;
    for (const auto &rec : records) {
        if (!rec.ok) {
            std::fprintf(stderr, "[stackbench] %s: a child did not finish\n",
                         rec.name.c_str());
            complete = false;
            continue;
        }
        for (const auto &name : required) {
            const Metric *m = findMetric(rec.outcome, name);
            if (!m || !std::isfinite(m->value)) {
                std::fprintf(stderr, "[stackbench] %s: metric %s %s\n",
                             rec.name.c_str(), name.c_str(),
                             m ? "is not finite" : "is missing");
                complete = false;
            }
        }
    }

    if (opt.trace && !opt.chrome.empty()) {
        std::ofstream os(opt.chrome);
        os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
        bool first = true;
        for (const auto &file : span_files) {
            std::ifstream in(file);
            if (!in)
                continue;
            if (!first)
                os << ",\n";
            os << in.rdbuf();
            first = false;
        }
        os << "\n]}\n";
        std::fprintf(stderr, "[stackbench] wrote %s\n", opt.chrome.c_str());
    }
    std::error_code ignored;
    for (const auto &file : span_files)
        std::filesystem::remove(file, ignored);
    std::filesystem::remove(work_dir, ignored);
    if (!complete)
        return 1;

    bool correct = true;
    std::uint64_t attempted = 0, failed = 0;
    for (const auto &rec : records) {
        for (const auto &m : rec.outcome.metrics)
            std::printf("%s.%s %.6g %s n=%llu\n", rec.name.c_str(),
                        m.name.c_str(), m.value, m.unit.c_str(),
                        (unsigned long long)m.n);
        const auto &o = rec.outcome;
        std::printf("%s.failed_frac %.6g fraction n=%llu\n", rec.name.c_str(),
                    o.attempted ? double(o.failed) / double(o.attempted) : 1.0,
                    (unsigned long long)o.attempted);
        correct = correct && o.failed == 0 && o.attempted > 0;
        attempted += o.attempted;
        failed += o.failed;
    }

    if (!opt.json.empty()) {
        std::ofstream os(opt.json);
        os << "{\"seed\": " << opt.seed
           << ", \"seconds\": " << jsonNumber(opt.seconds)
           << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"workloads\": {";
        for (std::size_t i = 0; i < records.size(); ++i) {
            const auto &o = records[i].outcome;
            std::vector<std::string> names;
            for (const auto &m : o.metrics)
                names.push_back(m.name);
            os << (i ? ", " : "") << "\"" << records[i].name
               << "\": {\"correct\": "
               << (o.failed == 0 && o.attempted > 0 ? "true" : "false")
               << ", \"attempted\": " << o.attempted
               << ", \"failed\": " << o.failed << ", \"metrics\": {"
               << jsonMetrics(o, names, true) << "}}";
        }
        os << "}}\n";
    }

    // The last stdout line: one workload's declared metrics, or with
    // --workload all every workload's, prefixed by its name.
    std::string metrics;
    for (const auto &rec : records) {
        const std::string part = jsonMetrics(
            rec.outcome, declared, false,
            records.size() > 1 ? rec.name + "." : "");
        metrics += (metrics.empty() ? "" : ", ") + part;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", (unsigned long long)attempted,
                (unsigned long long)failed, metrics.c_str());
    return opt.smoke && !correct ? 1 : 0;
}
