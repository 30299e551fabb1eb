/**
 * @file
 * Long-running batch service: daemon entry point and socket client
 * (src/service/, docs/service.md).
 *
 *   batch_service serve    [--socket S] [--spool DIR] [--cache-dir D]
 *                          [--threads T] [--poll-ms M] [--daemon]
 *                          [--log FILE] [--quiet]
 *                          [--worker COORD_SOCK [--name N]]
 *                          (--socket, --worker, or both)
 *   batch_service coordinate --socket S [--cache-dir D]
 *                          [--lease-ms M] [--quota N]
 *                          [--max-ready N] [--daemon] [--log FILE]
 *                          [--quiet]
 *   batch_service submit   <manifest> --socket S [--priority P]
 *                          [--wait [--timeout-s T]]
 *   batch_service status   --socket S [--job ID]
 *   batch_service result   <manifest> --socket S [--timings]
 *   batch_service result-raw <key-hex> --socket S [--out FILE]
 *   batch_service stream   <trace.dlt> --socket S [--plan FILE]
 *                          [--chunks N]
 *   batch_service stats    --socket S
 *   batch_service shutdown --socket S
 *
 * `coordinate` runs the fleet coordinator (docs/service.md): same
 * client-facing protocol as `serve`, but cells execute on worker
 * daemons — `serve --worker COORD_SOCK` adds a pull loop that leases
 * work units from the coordinator alongside (or instead of) local
 * spool/socket duty. One binary plays every fleet role.
 *
 * `serve` runs the daemon: a manifest watcher over the spool directory
 * (drop `.plan` files, collect them from `done/`) plus a Unix-domain
 * socket speaking DLRNSRV1, draining one shared priority queue into
 * the persistent result cache. `--daemon` detaches (fork + setsid,
 * stdio to --log or /dev/null); without it the server runs in the
 * foreground, which is what CI and process supervisors want.
 *
 * `result` expands the manifest locally (the same BatchPlan expansion
 * `batch_run` uses, so content keys match by construction), fetches
 * every cell over the socket and prints the canonical TSV
 * (batch/report_text.hh) — byte-identical to `batch_run run` output
 * of the same plan iff the results are bit-identical, which the CI
 * service-smoke job checks with a plain `diff`.
 *
 * `submit --wait` blocks on WAIT until the job completes and exits
 * non-zero if any cell failed, so shell pipelines can treat the
 * service like a blocking runner.
 *
 * `stream` feeds a recorded DLRNTRC1 trace to the service over the
 * TRACE-STREAM opcodes in --chunks pieces (cut by byte count, so cuts
 * land mid-record and mid-window — the wire format is chunking-
 * agnostic), printing the running estimate after every chunk and the
 * final cache key on close. `--plan FILE` supplies manifest directives
 * (config/schedule lines only, no workload); feed the key to
 * `result-raw`, or run `result` with a manifest naming the original
 * trace file — the streamed result is cached under the same content
 * key an offline run of that file produces.
 *
 * `stream --tail` follows a trace file that a recorder may still be
 * writing: every 200 ms it appends only the bytes that already existed
 * at the previous look (ServiceClient::streamFollow, a stability gate
 * like the spool watcher's, so a recorder's half-written tail is never
 * sent), printing the running estimate (CPI, MPKI, miss-ratio curve)
 * after each append, and closes once every declared record is in. The
 * client reads the file, so it works against a daemon and a
 * coordinator alike.
 */

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "base/logging.hh"
#include "batch/error.hh"
#include "batch/plan.hh"
#include "batch/report_text.hh"
#include "service/client.hh"
#include "service/coordinator.hh"
#include "service/service.hh"
#include "service/stream.hh"
#include "service/worker.hh"

namespace
{

using namespace delorean;
using namespace delorean::service;

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: batch_service serve    [--socket S] [--spool DIR]\n"
        "                              [--cache-dir D] [--threads T]\n"
        "                              [--poll-ms M] [--daemon]\n"
        "                              [--log FILE] [--quiet]\n"
        "                              [--worker COORD_SOCK"
        " [--name N]]\n"
        "                              (--socket, --worker, or both)\n"
        "       batch_service coordinate --socket S [--cache-dir D]\n"
        "                              [--lease-ms M] [--quota N]\n"
        "                              [--max-ready N] [--daemon]\n"
        "                              [--log FILE] [--quiet]\n"
        "       batch_service submit   <manifest> --socket S\n"
        "                              [--priority P] [--wait]\n"
        "                              [--timeout-s T]\n"
        "       batch_service status   --socket S [--job ID]\n"
        "       batch_service result   <manifest> --socket S"
        " [--timings]\n"
        "       batch_service result-raw <key-hex> --socket S"
        " [--out F]\n"
        "       batch_service stream   <trace.dlt> --socket S\n"
        "                              [--plan FILE] [--chunks N]\n"
        "                              [--tail]\n"
        "       batch_service stats    --socket S\n"
        "       batch_service shutdown --socket S\n");
    std::exit(1);
}

struct CliOptions
{
    std::string positional; //!< manifest path or key hex
    ServiceConfig service;
    unsigned priority = protocol::default_submit_priority;
    std::uint64_t job = 0;
    bool wait = false;
    unsigned timeout_s = 600;
    bool timings = false;
    bool daemonize = false;
    std::string log_file;
    std::string out_file;
    std::string worker_socket; //!< serve: pull from this coordinator
    std::string worker_name;   //!< serve --worker: reported name
    unsigned lease_ms = 10000;
    unsigned quota = 64;
    unsigned max_ready = 100000;
    std::string plan_file; //!< stream: manifest directives
    unsigned chunks = 3;   //!< stream: append pieces
    bool tail = false;     //!< stream: follow the growing file
};

unsigned
parseUnsigned(const std::string &text, const char *what)
{
    try {
        return batch::parseU32(text);
    } catch (const batch::BatchError &) {
        fatal("%s: expected a number, got '%s'", what, text.c_str());
    }
    return 0;
}

CliOptions
parseCli(int argc, char **argv, int first)
{
    CliOptions cli;
    cli.service.verbose = true;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char * {
            fatal_if(i + 1 >= argc, "missing value for %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--socket") {
            cli.service.socket_path = next();
        } else if (arg == "--spool") {
            cli.service.spool_dir = next();
        } else if (arg == "--cache-dir") {
            cli.service.cache_dir = next();
        } else if (arg == "--threads") {
            cli.service.threads = parseUnsigned(next(), "--threads");
        } else if (arg == "--poll-ms") {
            cli.service.poll_ms = parseUnsigned(next(), "--poll-ms");
        } else if (arg == "--worker") {
            cli.worker_socket = next();
        } else if (arg == "--name") {
            cli.worker_name = next();
        } else if (arg == "--lease-ms") {
            cli.lease_ms = parseUnsigned(next(), "--lease-ms");
        } else if (arg == "--quota") {
            cli.quota = parseUnsigned(next(), "--quota");
        } else if (arg == "--max-ready") {
            cli.max_ready = parseUnsigned(next(), "--max-ready");
        } else if (arg == "--plan") {
            cli.plan_file = next();
        } else if (arg == "--chunks") {
            cli.chunks = parseUnsigned(next(), "--chunks");
        } else if (arg == "--tail") {
            cli.tail = true;
        } else if (arg == "--priority") {
            cli.priority = parseUnsigned(next(), "--priority");
        } else if (arg == "--job") {
            cli.job = parseUnsigned(next(), "--job");
        } else if (arg == "--timeout-s") {
            cli.timeout_s = parseUnsigned(next(), "--timeout-s");
        } else if (arg == "--wait") {
            cli.wait = true;
        } else if (arg == "--timings") {
            cli.timings = true;
        } else if (arg == "--daemon") {
            cli.daemonize = true;
        } else if (arg == "--log") {
            cli.log_file = next();
        } else if (arg == "--out") {
            cli.out_file = next();
        } else if (arg == "--quiet") {
            cli.service.verbose = false;
        } else if (cli.positional.empty() && arg[0] != '-') {
            cli.positional = arg;
        } else {
            fatal("unknown option '%s'", arg.c_str());
        }
    }
    // A pure fleet worker (serve --worker, no --socket) needs no
    // listening address of its own; everything else does.
    fatal_if(cli.service.socket_path.empty() &&
                 cli.worker_socket.empty(),
             "--socket is required (the service address)");
    return cli;
}

/**
 * Classic daemonization: detach from the launching terminal so `serve
 * --daemon` survives the shell. stdout/stderr continue into --log (or
 * /dev/null) — the service's progress lines are its logbook.
 */
void
daemonize(const std::string &log_file)
{
    const ::pid_t pid = ::fork();
    fatal_if(pid < 0, "fork: %s", std::strerror(errno));
    if (pid > 0)
        std::exit(0); // launcher returns once the daemon is off
    fatal_if(::setsid() < 0, "setsid: %s", std::strerror(errno));

    const std::string sink =
        log_file.empty() ? "/dev/null" : log_file;
    const int log_fd =
        ::open(sink.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    fatal_if(log_fd < 0, "cannot open log '%s': %s", sink.c_str(),
             std::strerror(errno));
    const int null_fd = ::open("/dev/null", O_RDONLY);
    fatal_if(null_fd < 0, "cannot open /dev/null: %s",
             std::strerror(errno));
    ::dup2(null_fd, STDIN_FILENO);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::close(null_fd);
    ::close(log_fd);
}

int
cmdServe(const CliOptions &cli)
{
    if (cli.daemonize)
        daemonize(cli.log_file);

    // --worker: lease units from a coordinator — alongside local duty
    // when --socket is also given (the pull loop shares the cache
    // directory, so cells computed for the fleet are cache hits for
    // local jobs and vice versa), or as a pure pull loop without one
    // (the normal per-machine fleet deployment; stopped by signal).
    std::unique_ptr<WorkerLoop> worker;
    if (!cli.worker_socket.empty()) {
        WorkerConfig config;
        config.coordinator = cli.worker_socket;
        config.cache_dir = cli.service.cache_dir;
        config.threads =
            cli.service.threads == 0 ? 1 : cli.service.threads;
        config.name = cli.worker_name;
        config.verbose = cli.service.verbose;
        worker = std::make_unique<WorkerLoop>(config);
        worker->start();
    }
    if (cli.service.socket_path.empty()) {
        while (true)
            std::this_thread::sleep_for(std::chrono::seconds(1));
    }
    BatchService service(cli.service);
    service.run();
    if (worker)
        worker->stop();
    return 0;
}

int
cmdCoordinate(const CliOptions &cli)
{
    if (cli.daemonize)
        daemonize(cli.log_file);
    CoordinatorConfig config;
    config.socket_path = cli.service.socket_path;
    config.cache_dir = cli.service.cache_dir;
    config.lease_ms = cli.lease_ms;
    config.submit_quota = cli.quota;
    config.max_ready_units = cli.max_ready;
    config.verbose = cli.service.verbose;
    Coordinator coordinator(config);
    coordinator.run();
    return 0;
}

std::string
readManifestFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    fatal_if(!is, "cannot open manifest '%s'", path.c_str());
    std::ostringstream buffer;
    buffer << is.rdbuf();
    return buffer.str();
}

int
cmdSubmit(const CliOptions &cli)
{
    fatal_if(cli.positional.empty(), "submit: missing manifest path");
    const std::string text = readManifestFile(cli.positional);

    ServiceClient client(cli.service.socket_path);
    const auto info = client.submit(text, cli.priority);
    std::printf("job=%llu cells=%llu\n", (unsigned long long)info.job,
                (unsigned long long)info.cells);
    if (!cli.wait)
        return 0;

    // WAIT parks on the server until the job is terminal: a cache
    // hit returns as soon as it is done, a long job costs one request
    // per protocol::max_wait_ms.
    fatal_if(!client.waitForJob(info.job, double(cli.timeout_s)),
             "job %llu still running after %us",
             (unsigned long long)info.job, cli.timeout_s);
    // The typed snapshot drives the exit code; jobStatusLine renders
    // it back to the exact wire line, so the output stays diff-clean.
    const JobStatus status = client.jobStatus(info.job);
    std::fputs(jobStatusLine(status).c_str(), stdout);
    return status.failed == 0 ? 0 : 2;
}

int
cmdStatus(const CliOptions &cli)
{
    ServiceClient client(cli.service.socket_path);
    std::fputs(cli.job != 0
                   ? jobStatusLine(client.jobStatus(cli.job)).c_str()
                   : client.statusText().c_str(),
               stdout);
    return 0;
}

int
cmdResult(const CliOptions &cli)
{
    fatal_if(cli.positional.empty(), "result: missing manifest path");
    // Expanding locally reuses the exact key recipe batch_run uses, so
    // "the cell I ask for" and "the cell the service ran" can only be
    // the same content.
    const auto plan = batch::BatchPlan::fromManifest(cli.positional);
    ServiceClient client(cli.service.socket_path);

    batch::printResultHeaderTsv(stdout, cli.timings);
    for (const auto &cell : plan.cells()) {
        const auto result = client.result(cell.key);
        batch::printResultRowTsv(stdout, cell.workload,
                                 cell.config_name, cell.schedule_name,
                                 cell.method, result, cli.timings);
    }
    return 0;
}

int
cmdResultRaw(const CliOptions &cli)
{
    fatal_if(cli.positional.empty(), "result-raw: missing key hex");
    const auto key = batch::CacheKey::fromHex(cli.positional);
    ServiceClient client(cli.service.socket_path);
    const std::string bytes = client.resultBytes(key);

    if (cli.out_file.empty()) {
        std::fwrite(bytes.data(), 1, bytes.size(), stdout);
        return 0;
    }
    std::ofstream os(cli.out_file, std::ios::binary | std::ios::trunc);
    fatal_if(!os, "cannot write '%s'", cli.out_file.c_str());
    os.write(bytes.data(), std::streamsize(bytes.size()));
    fatal_if(!os.flush(), "short write to '%s'", cli.out_file.c_str());
    return 0;
}

/** Render one stream STATUS poll (shared by push and tail modes). */
void
printStreamStatus(const char *label, unsigned n,
                  const ServiceClient::StreamStatus &st)
{
    std::printf("%s=%u records=%llu windows_fed=%u windows_total=%u "
                "est_cpi=%.17g ci_error=%.17g mpki=%.17g",
                label, n, (unsigned long long)st.records,
                st.windows_fed, st.windows_total, st.est_cpi,
                st.ci_error, st.mpki);
    if (!st.mrc.empty())
        std::printf(" mrc=%s", formatMrcPoints(st.mrc).c_str());
    std::printf("\n");
}

/** How often `stream --tail` looks at the growing file. */
constexpr unsigned tail_poll_ms = 200;

int
cmdStream(const CliOptions &cli)
{
    fatal_if(cli.positional.empty(), "stream: missing trace path");
    if (cli.tail) {
        const std::string directives =
            cli.plan_file.empty() ? ""
                                  : readManifestFile(cli.plan_file);
        ServiceClient client(cli.service.socket_path);
        const std::uint64_t id = client.streamOpen(directives);
        std::printf("stream=%llu tail=%s\n", (unsigned long long)id,
                    cli.positional.c_str());
        unsigned poll = 0;
        client.streamFollow(id, cli.positional, tail_poll_ms,
                            [&](const ServiceClient::StreamStatus &st) {
                                printStreamStatus("poll", ++poll, st);
                            });
        const auto info = client.streamClose(id);
        std::printf("key=%s windows=%u\n", info.key.hex().c_str(),
                    info.windows);
        return 0;
    }
    std::ifstream is(cli.positional, std::ios::binary);
    fatal_if(!is, "cannot open trace '%s'", cli.positional.c_str());
    std::ostringstream buffer;
    buffer << is.rdbuf();
    const std::string bytes = buffer.str();
    fatal_if(bytes.empty(), "trace '%s' is empty",
             cli.positional.c_str());

    const std::string directives =
        cli.plan_file.empty() ? "" : readManifestFile(cli.plan_file);
    const unsigned chunks = cli.chunks == 0 ? 1 : cli.chunks;

    ServiceClient client(cli.service.socket_path);
    const std::uint64_t id = client.streamOpen(directives);
    std::printf("stream=%llu bytes=%zu chunks=%u\n",
                (unsigned long long)id, bytes.size(), chunks);

    // Chunk boundaries by plain byte arithmetic: they land mid-record
    // and mid-window, which the stream must (and does) absorb. Each
    // chunk still respects the 64 MiB frame cap via sub-appends.
    constexpr std::size_t max_append = ServiceClient::max_append;
    for (unsigned c = 0; c < chunks; ++c) {
        const std::size_t begin = bytes.size() * c / chunks;
        const std::size_t end = bytes.size() * (c + 1) / chunks;
        for (std::size_t at = begin; at < end; at += max_append)
            client.streamAppend(
                id, bytes.substr(at, std::min(max_append, end - at)));
        printStreamStatus("chunk", c + 1, client.streamStatus(id));
    }

    const auto info = client.streamClose(id);
    std::printf("key=%s windows=%u\n", info.key.hex().c_str(),
                info.windows);
    return 0;
}

int
cmdStats(const CliOptions &cli)
{
    ServiceClient client(cli.service.socket_path);
    std::fputs(client.statsText().c_str(), stdout);
    return 0;
}

int
cmdShutdown(const CliOptions &cli)
{
    ServiceClient client(cli.service.socket_path);
    client.shutdown();
    std::printf("shutdown requested\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string cmd = argv[1];
    try {
        const auto cli = parseCli(argc, argv, 2);
        if (cmd == "serve")
            return cmdServe(cli);
        if (cmd == "coordinate")
            return cmdCoordinate(cli);
        if (cmd == "submit")
            return cmdSubmit(cli);
        if (cmd == "status")
            return cmdStatus(cli);
        if (cmd == "result")
            return cmdResult(cli);
        if (cmd == "result-raw")
            return cmdResultRaw(cli);
        if (cmd == "stream")
            return cmdStream(cli);
        if (cmd == "stats")
            return cmdStats(cli);
        if (cmd == "shutdown")
            return cmdShutdown(cli);
    } catch (const std::exception &e) {
        fatal("%s", e.what());
    }
    usage();
}
