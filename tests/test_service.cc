/**
 * @file
 * Tests for the batch service (src/service/): DLRNSRV1 frame protocol
 * (round trip, malformed-input rejection), the job table both servers
 * own (SUBMIT-time hits and re-probes, in-flight dedupe, fan-out,
 * close semantics, one counter-line grammar), the spool
 * ManifestWatcher (stability gate, pickup, failure handling — all via
 * manual scan() calls, no timing dependence), and the end-to-end
 * daemon: a SUBMIT → STATUS → RESULT round trip over a real Unix
 * socket is bit-identical (MethodResult::operator==) to a direct
 * serial BatchRunner run, concurrent submitters of the same plan
 * execute each cell once, and re-submitting the same manifest content
 * executes zero cells.
 *
 * Fleet layer (src/service/coordinator.hh, worker.hh): a randomized
 * frame fuzzer (500+ seeded corrupt/truncated frames, every one a
 * ServiceError, never a crash — and no leaked connection slots on
 * the real server), chunked-frame boundary round trips (one byte
 * under, at, and over the 64 MiB frame cap in both directions), a
 * coordinator + two-worker run that is bit-identical to a serial
 * local run, fault injection (expired leases re-queue; a worker
 * killed mid-plan does not change the merged result; a zombie's
 * duplicate COMPLETE is acked and discarded with first write
 * winning, also when both race through handle(); a store that fails
 * fails its cells), leases renewed while a unit outlives them, units
 * leased before stream windows, the re-record
 * guard on the lease path, SUBMIT quota/backlog backpressure, job
 * table edge cases (exact eviction boundary, concurrent submits,
 * close() racing an in-flight completion), the same STATUS/STATS
 * grammar from both servers, and the capped exponential reconnect
 * backoff.
 *
 * Parked requests (WAIT, LEASE wait_ms): each wake rule is checked by
 * reply content through Coordinator::handle in process — a SUBMIT's
 * unit, an expired lease's re-queued unit, a completed stream window,
 * a finished job — plus timeouts, shutdown releasing every parked
 * request on both servers, WorkerLoop::stop()/kill() interrupting a
 * parked LEASE, and an abuse suite over the new fields. Torn stream
 * prefixes: truncated handoffs are refused without moving the
 * committed prefix, and a torn committed prefix is re-warmed by the
 * next worker instead of failing the stream.
 *
 * Streaming warming (TRACE-STREAM, src/service/stream.hh): the
 * streamed-equals-offline pin — a recorded trace streamed at several
 * chunk boundaries (mid-header, mid-record, mid-window; serial, and
 * fanned out over an idle threads=3 daemon's drain loops) closes to a
 * MethodResult bit-identical to the
 * offline run, under the offline content key — plus an abuse suite
 * (corrupt ids, bad headers, overflow, mid-record close, append after
 * close) where every case is an error reply and the service stays
 * fully usable. The client-side follower (`stream --tail`) feeds a
 * file grown in unaligned cuts to a daemon and to a two-worker fleet,
 * and gives up on a file that vanishes.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <mutex>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "base/units.hh"
#include "batch/result_io.hh"
#include "batch/runner.hh"
#include "checkpoint/livepoint.hh"
#include "core/session.hh"
#include "service/client.hh"
#include "service/coordinator.hh"
#include "service/queue.hh"
#include "service/server.hh"
#include "service/service.hh"
#include "service/stream.hh"
#include "service/watcher.hh"
#include "service/worker.hh"
#include "workload/endian.hh"
#include "workload/trace_io.hh"
#include "workload/trace_registry.hh"

namespace
{

using namespace delorean;
using namespace delorean::service;
namespace proto = delorean::service::protocol;

// ------------------------------------------------------------- helpers

/** Unique temp path, removed (recursively) on scope exit. */
struct TempPath
{
    std::string path;
    ::pid_t owner;

    explicit TempPath(const std::string &tag) : owner(::getpid())
    {
        static int counter = 0;
        const auto dir = std::filesystem::temp_directory_path();
        path = (dir / ("delorean_service_" + tag + "_" +
                       std::to_string(owner) + "_" +
                       std::to_string(counter++)))
                   .string();
    }

    ~TempPath()
    {
        if (::getpid() != owner)
            return;
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
}

/** The tiny manifest every end-to-end test runs (fast under ASan). */
constexpr const char *tiny_manifest =
    "workload bzip2\n"
    "config c llc=2MiB\n"
    "schedule s spacing=200000 regions=2\n"
    "methods delorean\n";

/** A 2-cell flavour for multi-cell checks. */
constexpr const char *two_cell_manifest =
    "workload bzip2\n"
    "config small llc=2MiB\n"
    "config big llc=8MiB\n"
    "schedule s spacing=200000 regions=2\n"
    "methods delorean\n";

batch::BatchPlan
tinyPlan(const char *text = tiny_manifest)
{
    return batch::BatchPlan::fromManifestText(text, "test");
}

/** Both ends of a socketpair, closed on scope exit. */
struct FdPair
{
    int fds[2] = {-1, -1};

    FdPair()
    {
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    }

    ~FdPair()
    {
        for (const int fd : fds)
            if (fd >= 0)
                ::close(fd);
    }
};

/**
 * A BatchService running on its own thread against temp directories,
 * joined (via client SHUTDOWN or requestShutdown) on scope exit.
 */
struct ServiceFixture
{
    TempPath root{"svc"};
    ServiceConfig config;
    std::unique_ptr<BatchService> service;
    std::thread runner;

    explicit ServiceFixture(bool with_spool = false, unsigned threads = 2)
    {
        std::filesystem::create_directories(root.path);
        config.socket_path = root.path + "/srv.sock";
        config.cache_dir = root.path + "/cache";
        if (with_spool)
            config.spool_dir = root.path + "/spool";
        config.threads = threads;
        config.poll_ms = 20; // fast spool polls keep tests snappy
        service = std::make_unique<BatchService>(config);
        runner = std::thread([this] { service->run(); });
        waitFor([&] { return ServiceClient::ping(config.socket_path); },
                "socket to come up");
    }

    ~ServiceFixture()
    {
        service->requestShutdown();
        if (runner.joinable())
            runner.join();
    }

    /** Poll @p done (with a generous deadline: CI + ASan are slow). */
    static void waitFor(const std::function<bool()> &done,
                        const char *what)
    {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(120);
        while (!done()) {
            ASSERT_LT(std::chrono::steady_clock::now(), deadline)
                << "timed out waiting for " << what;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
    }
};

// ------------------------------------------------------------- protocol

TEST(Protocol, RequestAndReplyRoundTrip)
{
    FdPair pair;
    proto::Request request;
    request.op = proto::Opcode::Submit;
    request.body = std::string("priority") + '\0' + "and text";
    proto::writeRequest(pair.fds[0], request);

    const auto got = proto::readRequest(pair.fds[1]);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->op, proto::Opcode::Submit);
    EXPECT_EQ(got->body, request.body);

    proto::writeReply(pair.fds[1], proto::Reply::success("payload"));
    const auto reply = proto::readReply(pair.fds[0]);
    EXPECT_TRUE(reply.ok);
    EXPECT_EQ(reply.body, "payload");

    proto::writeReply(pair.fds[1], proto::Reply::error("boom"));
    const auto error = proto::readReply(pair.fds[0]);
    EXPECT_FALSE(error.ok);
    EXPECT_EQ(error.body, "boom");
}

TEST(Protocol, CleanEofBetweenFramesIsHangupNotError)
{
    FdPair pair;
    ::close(pair.fds[0]);
    pair.fds[0] = -1;
    EXPECT_FALSE(proto::readRequest(pair.fds[1]).has_value());
}

TEST(Protocol, RejectsMalformedFrames)
{
    // Bad magic.
    {
        FdPair pair;
        proto::writeAll(pair.fds[0], "DLRNTRC1\0\0\0\0\0\0\0\0", 16);
        EXPECT_THROW((void)proto::readRequest(pair.fds[1]),
                     ServiceError);
    }
    // Unknown opcode.
    {
        FdPair pair;
        std::uint8_t frame[16] = {};
        std::memcpy(frame, proto::magic, 8);
        frame[8] = 0x7f; // opcode 127
        proto::writeAll(pair.fds[0], frame, sizeof(frame));
        EXPECT_THROW((void)proto::readRequest(pair.fds[1]),
                     ServiceError);
    }
    // Oversized body length: must throw before allocating it.
    {
        FdPair pair;
        std::uint8_t frame[16] = {};
        std::memcpy(frame, proto::magic, 8);
        frame[8] = 2; // STATUS
        frame[12] = frame[13] = frame[14] = frame[15] = 0xff;
        proto::writeAll(pair.fds[0], frame, sizeof(frame));
        EXPECT_THROW((void)proto::readRequest(pair.fds[1]),
                     ServiceError);
    }
    // Truncated body: header promises more bytes than ever arrive.
    {
        FdPair pair;
        std::uint8_t frame[16] = {};
        std::memcpy(frame, proto::magic, 8);
        frame[8] = 1;  // SUBMIT
        frame[12] = 8; // body length 8, but we send nothing more
        proto::writeAll(pair.fds[0], frame, sizeof(frame));
        ::close(pair.fds[0]);
        pair.fds[0] = -1;
        EXPECT_THROW((void)proto::readRequest(pair.fds[1]),
                     ServiceError);
    }
    // Reply truncated mid-header.
    {
        FdPair pair;
        proto::writeAll(pair.fds[0], proto::magic, 8);
        ::close(pair.fds[0]);
        pair.fds[0] = -1;
        EXPECT_THROW((void)proto::readReply(pair.fds[1]),
                     ServiceError);
    }
}

std::string rawFrame(std::uint32_t code, const std::string &body);

// Regression: a clean EOF *between* frames is only a benign hangup
// before the first frame. Once status_part chunks of a multi-frame
// reply have arrived, the terminator never coming means the body is
// truncated — that must surface as a ServiceError carrying the
// frames-so-far count, never as a silently short reply.
TEST(Protocol, CleanEofDuringPartialReplyIsTruncationError)
{
    for (const std::size_t parts : {std::size_t(1), std::size_t(2)}) {
        FdPair pair;
        for (std::size_t p = 0; p < parts; ++p) {
            const std::string frame =
                rawFrame(proto::status_part, "chunk");
            proto::writeAll(pair.fds[0], frame.data(), frame.size());
        }
        ::close(pair.fds[0]);
        pair.fds[0] = -1;
        try {
            (void)proto::readReply(pair.fds[1]);
            FAIL() << "expected ServiceError after " << parts
                   << " partial frames";
        } catch (const ServiceError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("mid-reassembly"), std::string::npos)
                << what;
            EXPECT_NE(what.find(std::to_string(parts) +
                                " partial frame"),
                      std::string::npos)
                << what;
        }
    }
}

// ------------------------------------------------------------ job table

/** A job table over a fresh temp cache, as each server owns one. */
struct TableFixture
{
    TempPath dir{"table"};
    batch::ResultCache cache{dir.path};
    JobQueue table{cache};

    /** Probe and register @p plan as one socket job at @p priority;
     *  @p fresh receives the cells it must execute. */
    std::uint64_t
    add(const batch::BatchPlan &plan, const std::string &name = "j",
        std::size_t *fresh = nullptr)
    {
        const auto added = table.add(
            plan, table.probe(plan), {name, JobSource::Socket, 0, "", 0},
            [&](std::uint64_t,
                const std::vector<const batch::BatchCell *> &cells) {
                if (fresh)
                    *fresh = cells.size();
            });
        table.settle(added.finished);
        return added.id;
    }
};

TEST(Queue, PriorityThenFifoOrder)
{
    // Both executors (the daemon's cell heap, the coordinator's ready
    // units) pop by heapBelow: highest priority first, FIFO within.
    struct Item
    {
        int priority;
        std::uint64_t seq;
    };
    std::vector<Item> heap;
    for (const Item item :
         {Item{0, 0}, Item{0, 1}, Item{10, 2}, Item{10, 3}, Item{5, 4}}) {
        heap.push_back(item);
        std::push_heap(heap.begin(), heap.end(), heapBelow<Item>);
    }
    std::vector<std::uint64_t> order;
    while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), heapBelow<Item>);
        order.push_back(heap.back().seq);
        heap.pop_back();
    }
    EXPECT_EQ(order, (std::vector<std::uint64_t>{2, 3, 4, 0, 1}));
}

TEST(Queue, ConcurrentKeysDedupeToOneTask)
{
    TableFixture t;
    const auto plan = tinyPlan();
    std::size_t fresh_a = 9, fresh_b = 9;
    const auto a = t.add(plan, "a", &fresh_a);
    const auto b = t.add(plan, "b", &fresh_b);

    // Identical content: one execution, two attached jobs.
    EXPECT_EQ(fresh_a, 1u);
    EXPECT_EQ(fresh_b, 0u);
    EXPECT_EQ(t.table.counters().cells_deduped, 1u);
    EXPECT_EQ(t.table.counters().cells_pending, 1u);

    // A key stays pending until it resolves, queued or running: a
    // third submitter attaches too.
    const auto c = t.add(plan, "c");
    EXPECT_EQ(t.table.counters().cells_deduped, 2u);

    const auto finished =
        t.table.resolve(plan.cells()[0].key, true, "", true);
    ASSERT_EQ(finished.size(), 3u);
    for (const auto &job : finished) {
        EXPECT_TRUE(job.status.complete());
        EXPECT_EQ(job.status.failed, 0u);
    }
    // Exactly one of the three owns the execution.
    std::uint64_t executed = 0, cached = 0;
    for (const auto &job : finished) {
        executed += job.executed;
        cached += job.cached;
    }
    EXPECT_EQ(executed, 1u);
    EXPECT_EQ(cached, 2u);
    EXPECT_EQ(t.table.counters().cells_executed, 1u);
    EXPECT_EQ(t.table.counters().cells_pending, 0u);

    for (const auto id : {a, b, c})
        EXPECT_TRUE(t.table.job(id)->complete());
}

TEST(Queue, FailureFansOutToEveryAttachedJob)
{
    TableFixture t;
    const auto plan = tinyPlan();
    (void)t.add(plan, "a");
    (void)t.add(plan, "b");

    const auto finished =
        t.table.resolve(plan.cells()[0].key, false, "cell exploded", false);
    ASSERT_EQ(finished.size(), 2u);
    for (const auto &job : finished) {
        EXPECT_STREQ(job.status.state(), "failed");
        EXPECT_EQ(job.status.first_error, "cell exploded");
    }
    EXPECT_EQ(t.table.counters().job_failures, 2u);
    EXPECT_EQ(t.table.counters().cells_executed, 0u);
}

TEST(Queue, CloseRefusesJobsButInFlightKeysStillResolve)
{
    TableFixture t;
    const auto plan = tinyPlan();
    const auto id = t.add(plan, "a");
    t.table.close();

    EXPECT_THROW((void)t.add(tinyPlan(two_cell_manifest), "late"),
                 ServiceError);
    // Waiters are released: a WAIT answers at once, unfinished.
    EXPECT_FALSE(t.table.waitJob(id, proto::max_wait_ms)->complete());
    // An execution already running still fans out.
    EXPECT_EQ(t.table.resolve(plan.cells()[0].key, true, "", true).size(),
              1u);
    EXPECT_EQ(t.table.counters().cells_pending, 0u);
}

TEST(Queue, WaitJobWakesOnSettleTimeoutAndRelease)
{
    TableFixture t;
    const auto plan = tinyPlan();
    const std::uint64_t id = t.add(plan, "w");
    EXPECT_FALSE(t.table.waitJob(999, 1).has_value());
    // Timeout: the unfinished snapshot.
    EXPECT_FALSE(t.table.waitJob(id, 1)->complete());

    std::optional<JobStatus> waited;
    std::thread waiter(
        [&] { waited = t.table.waitJob(id, proto::max_wait_ms); });
    while (t.table.counters().parked == 0)
        std::this_thread::yield();
    // The owner's bookkeeping comes between resolve() and settle(),
    // which is what wakes the WAIT.
    t.table.settle(t.table.resolve(plan.cells()[0].key, true, "", true));
    waiter.join();
    ASSERT_TRUE(waited.has_value());
    EXPECT_STREQ(waited->state(), "done");

    const std::uint64_t other = t.add(tinyPlan(two_cell_manifest), "w");
    std::thread released(
        [&] { waited = t.table.waitJob(other, proto::max_wait_ms); });
    while (t.table.counters().parked == 0)
        std::this_thread::yield();
    t.table.releaseWaiters();
    released.join();
    EXPECT_FALSE(waited->complete());
    EXPECT_EQ(t.table.counters().parked, 0u);
}

TEST(Queue, FinishedJobHistoryIsBounded)
{
    // A long-running server must not grow job records forever: only
    // the newest max_finished_jobs finished jobs are queryable.
    TableFixture t;
    const auto plan = tinyPlan();
    const std::size_t total = JobQueue::max_finished_jobs + 50;
    std::uint64_t first = 0, last = 0;
    for (std::size_t i = 0; i < total; ++i) {
        last = t.add(plan, "j");
        if (first == 0)
            first = last;
    }

    // All cells share one content key: one pending key, `total`
    // attached jobs, one resolution finishing all of them at once.
    const auto finished =
        t.table.resolve(plan.cells()[0].key, true, "", true);
    EXPECT_EQ(finished.size(), total);

    // The oldest 50 fell off; the newest max_finished_jobs remain.
    EXPECT_FALSE(t.table.job(first).has_value());
    ASSERT_TRUE(t.table.job(last).has_value());
    EXPECT_TRUE(t.table.job(last)->complete());
    EXPECT_EQ(t.table.jobs().size(), JobQueue::max_finished_jobs);
    // Lifetime counters are unaffected by eviction.
    EXPECT_EQ(t.table.counters().jobs_completed, total);
}

TEST(Queue, HitsResolveAtSubmitAndStaleMissesAreProbedAgain)
{
    TableFixture t;
    const auto plan = tinyPlan();
    const batch::CacheKey key = plan.cells()[0].key;

    // A: the first submitter executes the cell.
    std::size_t fresh = 9;
    (void)t.add(plan, "a", &fresh);
    EXPECT_EQ(fresh, 1u);

    // B probes while A's cell runs: a miss...
    const JobQueue::Probe stale = t.table.probe(plan);
    EXPECT_FALSE(stale.hit[0]);
    // ...then A's cell is stored and resolves before B registers. B's
    // probe is stale and the key no longer pending, so the table
    // probes it again instead of executing the cell a second time.
    const sampling::MethodResult result;
    t.cache.store(key, result);
    t.table.settle(t.table.resolve(key, true, "", true));
    fresh = 9;
    const auto b = t.table.add(
        plan, stale, {"b", JobSource::Socket, 0, "", 0},
        [&](std::uint64_t,
            const std::vector<const batch::BatchCell *> &cells) {
            fresh = cells.size();
        });
    EXPECT_EQ(fresh, 0u);
    ASSERT_EQ(b.finished.size(), 1u);
    EXPECT_EQ(b.finished[0].cached, 1u);

    // C probes after the store: a hit, done inside add().
    const auto c = t.table.add(plan, t.table.probe(plan),
                               {"c", JobSource::Spool, 0, "", 0}, {});
    ASSERT_EQ(c.finished.size(), 1u);
    EXPECT_STREQ(c.finished[0].status.state(), "done");

    const ServiceCounters counters = t.table.counters();
    EXPECT_EQ(counters.cells_total, 3u);
    EXPECT_EQ(counters.cells_executed, 1u);
    EXPECT_EQ(counters.cells_cached, 2u);
    EXPECT_EQ(counters.jobs_completed, 3u);
}

TEST(Queue, RefusedAdmissionRegistersNothing)
{
    TableFixture t;
    const auto plan = tinyPlan();
    EXPECT_THROW((void)t.table.add(
                     plan, t.table.probe(plan),
                     {"x", JobSource::Socket, 0, "", 0},
                     [](std::uint64_t,
                        const std::vector<const batch::BatchCell *> &) {
                         throw ServiceError("backlog full");
                     }),
                 ServiceError);
    const ServiceCounters counters = t.table.counters();
    EXPECT_EQ(counters.jobs_submitted, 0u);
    EXPECT_EQ(counters.cells_pending, 0u);
    // The next job gets the first id.
    EXPECT_EQ(t.add(plan), 1u);
}

TEST(Queue, CounterLineRoundTripsOneKeySet)
{
    ServiceCounters jobs{1, 2, 3, 4, 5, 6, 7, 8, 9};
    FleetStats fleet{10, 11, 12, 13, 14, 15, 16,
                     17, 18, 19, 20, 21, 22, 23};
    const std::string line = counterLine(jobs, fleet);
    // The keys CI greps on both servers.
    for (const char *key : {"cells_executed=5 ", "parked=9 ",
                            "leases_granted=12 ", "stream_leases=19 "})
        EXPECT_NE(line.find(key), std::string::npos) << key;

    ServiceCounters parsed_jobs;
    FleetStats parsed_fleet;
    parseCounterLine(line, parsed_jobs, parsed_fleet);
    EXPECT_EQ(counterLine(parsed_jobs, parsed_fleet), line);

    // Unknown keys are skipped; malformed values are errors.
    parseCounterLine("jobs=4 future_key=1", parsed_jobs, parsed_fleet);
    EXPECT_EQ(parsed_jobs.jobs_submitted, 4u);
    for (const char *bad : {"jobs=abc", "jobs=-1", "parked", "jobs=1x"})
        EXPECT_THROW(parseCounterLine(bad, parsed_jobs, parsed_fleet),
                     ServiceError)
            << bad;
}

// -------------------------------------------------------------- watcher

TEST(Watcher, PicksUpStableManifestsOnly)
{
    TempPath spool("spool");
    ManifestWatcher watcher(spool.path);

    writeFile(spool.path + "/job.plan", tiny_manifest);
    // First sight registers the file; nothing is ready yet (it could
    // still be mid-write).
    EXPECT_TRUE(watcher.scan().empty());
    // Second scan: (mtime, size) unchanged -> stable -> picked up.
    auto ready = watcher.scan();
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0].name, "job.plan");
    EXPECT_EQ(ready[0].plan.cells().size(), 1u);

    // In-flight: not picked up again while the job runs.
    EXPECT_TRUE(watcher.scan().empty());

    watcher.moveDone(ready[0].path);
    EXPECT_TRUE(
        std::filesystem::exists(spool.path + "/done/job.plan"));
    EXPECT_FALSE(std::filesystem::exists(ready[0].path));
    EXPECT_TRUE(watcher.scan().empty());
    EXPECT_EQ(watcher.processed(), 1u);
}

TEST(Watcher, NonPlanFilesAreIgnored)
{
    TempPath spool("spool_ignore");
    ManifestWatcher watcher(spool.path);
    writeFile(spool.path + "/notes.txt", "not a manifest");
    writeFile(spool.path + "/.plan", "suffix only");
    EXPECT_TRUE(watcher.scan().empty());
    EXPECT_TRUE(watcher.scan().empty());
    EXPECT_EQ(watcher.processed(), 0u);
}

TEST(Watcher, MalformedManifestMovesToFailedWithDiagnostic)
{
    TempPath spool("spool_bad");
    ManifestWatcher watcher(spool.path);
    writeFile(spool.path + "/bad.plan", "frobnicate bzip2\n");

    EXPECT_TRUE(watcher.scan().empty()); // register
    EXPECT_TRUE(watcher.scan().empty()); // stable -> parse -> failed/
    EXPECT_TRUE(
        std::filesystem::exists(spool.path + "/failed/bad.plan"));

    std::ifstream err(spool.path + "/failed/bad.plan.err");
    std::string diagnostic((std::istreambuf_iterator<char>(err)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(diagnostic.find("unknown directive"), std::string::npos);
    EXPECT_EQ(watcher.processed(), 1u);
}

TEST(Watcher, EditedWhileInFlightIsNotArchived)
{
    TempPath spool("spool_edit");
    ManifestWatcher watcher(spool.path);

    writeFile(spool.path + "/job.plan", tiny_manifest);
    (void)watcher.scan();
    auto ready = watcher.scan();
    ASSERT_EQ(ready.size(), 1u);

    // The manifest is edited while its job runs. Archiving would file
    // the new, never-executed content under done/ — the move must be
    // refused and the new content picked up on a later scan.
    writeFile(spool.path + "/job.plan", two_cell_manifest);
    setLogQuiet(true);
    watcher.moveDone(ready[0].path);
    setLogQuiet(false);
    EXPECT_FALSE(
        std::filesystem::exists(spool.path + "/done/job.plan"));
    EXPECT_TRUE(std::filesystem::exists(ready[0].path));

    (void)watcher.scan(); // re-stabilize the edited file
    auto again = watcher.scan();
    ASSERT_EQ(again.size(), 1u);
    EXPECT_EQ(again[0].plan.cells().size(), 2u);
    watcher.moveDone(again[0].path);
    EXPECT_TRUE(
        std::filesystem::exists(spool.path + "/done/job.plan"));
}

TEST(Watcher, DoneCollisionsGetNumericSuffixes)
{
    TempPath spool("spool_collide");
    ManifestWatcher watcher(spool.path);

    for (int round = 0; round < 2; ++round) {
        writeFile(spool.path + "/same.plan", tiny_manifest);
        (void)watcher.scan();
        auto ready = watcher.scan();
        ASSERT_EQ(ready.size(), 1u) << "round " << round;
        watcher.moveDone(ready[0].path);
    }
    EXPECT_TRUE(
        std::filesystem::exists(spool.path + "/done/same.plan"));
    EXPECT_TRUE(
        std::filesystem::exists(spool.path + "/done/same.plan.1"));
}

// ------------------------------------------------- service, end to end

// The acceptance bar: a SUBMIT -> STATUS -> RESULT round trip over the
// real socket parses into a MethodResult equal (operator==, doubles
// bitwise) to a direct serial BatchRunner::runCell of the same cell.
TEST(Service, SocketRoundTripIsBitIdenticalToDirectRun)
{
    const auto plan = tinyPlan(two_cell_manifest);
    std::vector<sampling::MethodResult> direct;
    for (const auto &cell : plan.cells())
        direct.push_back(batch::BatchRunner::runCell(cell));

    ServiceFixture fixture;
    ServiceClient client(fixture.config.socket_path);
    const auto info = client.submit(two_cell_manifest);
    EXPECT_EQ(info.cells, 2u);

    ServiceFixture::waitFor([&] { return client.jobDone(info.job); },
                            "job completion");
    EXPECT_STREQ(client.jobStatus(info.job).state(), "done");

    for (std::size_t i = 0; i < plan.cells().size(); ++i) {
        const auto fetched = client.result(plan.cells()[i].key);
        EXPECT_EQ(fetched, direct[i]) << "cell " << i;
    }

    // The raw bytes are the canonical serialization of the *service's*
    // producing run: parsing and re-encoding reproduces them exactly.
    // (Re-encoding `direct` would NOT match byte-for-byte — the
    // measured phase timings of two separate runs differ, which is
    // precisely why they are excluded from operator==.)
    const std::string bytes = client.resultBytes(plan.cells()[0].key);
    std::istringstream parse(bytes, std::ios::binary);
    std::ostringstream reencoded(std::ios::binary);
    batch::writeMethodResult(reencoded, batch::readMethodResult(parse));
    EXPECT_EQ(reencoded.str(), bytes);
}

TEST(Service, ResubmittedManifestExecutesZeroCells)
{
    ServiceFixture fixture;
    ServiceClient client(fixture.config.socket_path);

    const auto first = client.submit(tiny_manifest);
    ServiceFixture::waitFor([&] { return client.jobDone(first.job); },
                            "first job");
    EXPECT_EQ(fixture.service->cellsExecuted(), 1u);

    // Same manifest content again: served entirely from the result
    // cache, zero additional executions (the BatchPlan re-submission
    // contract, service path).
    const auto second = client.submit(tiny_manifest);
    ServiceFixture::waitFor([&] { return client.jobDone(second.job); },
                            "second job");
    EXPECT_EQ(fixture.service->cellsExecuted(), 1u);
    EXPECT_EQ(fixture.service->cellsFromCache(), 1u);

    // recordRun happens just *after* the job flips to done; poll the
    // stats until the second (fully cached) run is folded in.
    ServiceFixture::waitFor(
        [&] {
            return client.stats().last_run_executed == 0 &&
                   client.stats().last_run_cached == 1;
        },
        "run counters to settle");
    const ServiceStats stats = client.stats();
    EXPECT_EQ(stats.fleet_stats.leases_granted, 0u); // a daemon: no leases
    EXPECT_EQ(stats.cells_executed, 1u);
    EXPECT_EQ(stats.jobs_submitted, 2u);
}

TEST(Service, ConcurrentSubmittersExecuteEachCellOnce)
{
    ServiceFixture fixture;

    // Several clients race the same plan into a cold cache; dedupe
    // (queue attach for in-flight cells, content cache for the rest)
    // must keep the execution count at exactly one per distinct cell.
    constexpr int clients = 6;
    std::vector<std::uint64_t> jobs(clients, 0);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            ServiceClient client(fixture.config.socket_path);
            jobs[std::size_t(c)] = client.submit(two_cell_manifest).job;
        });
    }
    for (auto &t : threads)
        t.join();

    ServiceClient client(fixture.config.socket_path);
    for (const auto job : jobs) {
        ASSERT_NE(job, 0u);
        ServiceFixture::waitFor([&] { return client.jobDone(job); },
                                "concurrent job");
        EXPECT_STREQ(client.jobStatus(job).state(), "done");
    }
    EXPECT_EQ(fixture.service->cellsExecuted(), 2u);
}

TEST(Service, SpoolManifestRunsAndMovesToDone)
{
    ServiceFixture fixture(/*with_spool=*/true);
    const std::string spool = fixture.config.spool_dir;
    writeFile(spool + "/drop.plan", tiny_manifest);

    ServiceFixture::waitFor(
        [&] {
            return std::filesystem::exists(spool + "/done/drop.plan");
        },
        "spool manifest to finish");

    // The result landed in the cache under the same content key a
    // local expansion computes.
    const auto plan = tinyPlan();
    ServiceClient client(fixture.config.socket_path);
    const auto fetched = client.result(plan.cells()[0].key);
    EXPECT_EQ(fetched,
              batch::BatchRunner::runCell(plan.cells()[0]));
}

TEST(Service, SpoolManifestWithBadCellMovesToFailed)
{
    ServiceFixture fixture(/*with_spool=*/true);
    const std::string spool = fixture.config.spool_dir;

    // Parses fine, but the recording is too short for the schedule:
    // the *cell* fails at execution time, so the manifest must land in
    // failed/ with the cell diagnostic.
    TempPath trace("short_trace");
    auto source = workload::makeTrace("spec:bzip2");
    workload::recordTrace(*source, 1000, trace.path);
    writeFile(spool + "/short.plan",
              "workload file:" + trace.path +
                  "\n"
                  "config c llc=2MiB\n"
                  "schedule s spacing=200000 regions=2\n");

    setLogQuiet(true);
    ServiceFixture::waitFor(
        [&] {
            return std::filesystem::exists(spool +
                                           "/failed/short.plan");
        },
        "failing spool manifest");
    setLogQuiet(false);
    std::ifstream err(spool + "/failed/short.plan.err");
    std::string diagnostic((std::istreambuf_iterator<char>(err)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(diagnostic.find("file:"), std::string::npos);
}

TEST(Service, SecondServerOnLiveSocketRefusesPromptly)
{
    ServiceFixture fixture;
    // Two daemons on one socket (and so one spool/queue) would
    // double-execute; the second must refuse. Regression: the failed
    // start must also unwind past the already-running worker pool
    // without deadlocking on threads blocked in the queue.
    setLogQuiet(true);
    BatchService second(fixture.config);
    EXPECT_THROW(second.run(), ServiceError);
    setLogQuiet(false);

    // The incumbent is unharmed (and refuses leases as a plain daemon).
    ServiceClient client(fixture.config.socket_path);
    EXPECT_THROW((void)client.lease("w"), ServiceError);
}

TEST(Service, ErrorRepliesForBadRequests)
{
    ServiceFixture fixture;
    ServiceClient client(fixture.config.socket_path);

    // Malformed manifest in SUBMIT.
    EXPECT_THROW((void)client.submit("frobnicate bzip2\n"),
                 ServiceError);
    // Unknown job id.
    EXPECT_THROW((void)client.jobStatus(999), ServiceError);
    // RESULT for a key nobody computed.
    batch::CacheKey missing;
    missing.hi = 0x1234;
    missing.lo = 0x5678;
    EXPECT_THROW((void)client.result(missing), ServiceError);

    // RESULT whose body is not a key at all (raw frame: the typed
    // client cannot even express this). The server answers with an
    // error reply and keeps the connection usable.
    const int fd = connectToServer(fixture.config.socket_path);
    proto::Request request;
    request.op = proto::Opcode::Result;
    request.body = "definitely-not-32-hex-digits";
    proto::writeRequest(fd, request);
    const auto reply = proto::readReply(fd);
    EXPECT_FALSE(reply.ok);
    EXPECT_NE(reply.body.find("not 32 hex digits"), std::string::npos);

    request.op = proto::Opcode::Stats;
    request.body.clear();
    proto::writeRequest(fd, request);
    EXPECT_TRUE(proto::readReply(fd).ok);
    ::close(fd);
}

// ------------------------------------------------------ trace streaming

/** The stream directives matching tiny_manifest minus its workload. */
constexpr const char *stream_directives =
    "config c llc=2MiB\n"
    "schedule s spacing=200000 regions=2\n"
    "methods delorean\n";

/** Record @p insts of bzip2 to @p path, return the file's raw bytes. */
std::string
recordTraceBytes(const std::string &path, std::uint64_t insts)
{
    auto source = workload::makeTrace("spec:bzip2");
    workload::recordTrace(*source, insts, path);
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << is.rdbuf();
    return buffer.str();
}

// The tentpole acceptance pin: streaming a recorded trace in chunks —
// cut mid-header, mid-record, and mid-window — produces a final
// MethodResult bit-identical (operator==, doubles bitwise) to an
// offline DeloreanMethod run of the same file, cached under the very
// key an offline plan expansion computes. Checked on a one-loop daemon
// (serial feeds) and on an idle threads=3 daemon, whose drain loops
// take the feeds' window fan-out (it must not change any bit).
TEST(Stream, StreamedEqualsOfflineAcrossChunkSplits)
{
    TempPath trace("stream_trace");
    const std::string bytes = recordTraceBytes(trace.path, 400000);
    const std::string plan_text =
        "workload file:" + trace.path + "\n" + stream_directives;
    const auto plan = tinyPlan(plan_text.c_str());
    ASSERT_EQ(plan.cells().size(), 1u);
    const auto golden = batch::BatchRunner::runCell(plan.cells()[0]);

    // Record layout: 32-byte fixed header + name, then 32-byte
    // records. All cut positions below are deliberately unaligned.
    const std::size_t records_at = bytes.size() - 400000ull * 32;
    const std::vector<std::vector<std::size_t>> splits = {
        // Mid-header: the fixed header itself arrives in two pieces.
        {13},
        // Mid-record inside window 1, rest in one piece.
        {records_at + 17},
        // Window boundary + 5 bytes (mid-record), then mid-window-2.
        {records_at + 200000ull * 32 + 5, records_at + 300000ull * 32},
        // Byte-count thirds: both cuts land mid-record, mid-window.
        {bytes.size() / 3, 2 * bytes.size() / 3},
    };

    for (const unsigned threads : {1u, 3u}) {
        for (std::size_t s = 0; s < splits.size(); ++s) {
            // A fresh fixture per split: every run must produce (not
            // merely fetch) its result, so a drifting split could
            // never hide behind an earlier run's cache entry.
            ServiceFixture fixture(/*with_spool=*/false, threads);
            ServiceClient client(fixture.config.socket_path);
            const std::uint64_t id =
                client.streamOpen(stream_directives);

            std::size_t at = 0;
            unsigned last_fed = 0;
            for (const std::size_t cut : splits[s]) {
                ASSERT_LT(at, cut);
                const auto info = client.streamAppend(
                    id, bytes.substr(at, cut - at));
                EXPECT_EQ(info.received, cut);
                EXPECT_GE(info.windows_fed, last_fed);
                last_fed = info.windows_fed;
                const auto st = client.streamStatus(id);
                EXPECT_EQ(st.windows_fed, last_fed);
                EXPECT_EQ(st.windows_total, 2u);
                at = cut;
            }
            client.streamAppend(id, bytes.substr(at));

            const auto closed = client.streamClose(id);
            EXPECT_EQ(closed.windows, 2u)
                << "split " << s << " threads " << threads;
            // The content key equals the offline plan's cell key...
            EXPECT_EQ(closed.key, plan.cells()[0].key);
            // ...and the cached result is bit-identical to the
            // offline run over the same bytes.
            EXPECT_EQ(client.result(closed.key), golden)
                << "split " << s << " threads " << threads;

            // The stream is gone: further appends are an error.
            EXPECT_THROW((void)client.streamAppend(id, "x"),
                         ServiceError);
        }
    }
}

TEST(Stream, AbusiveStreamsErrorCleanlyAndReclaimState)
{
    // One window is enough to exercise every failure path cheaply:
    // spacing just over the region+warming floor keeps the trace and
    // the (single) window feed small.
    constexpr const char *directives =
        "config c llc=2MiB\n"
        "schedule s spacing=41000 regions=1\n";
    TempPath trace("abuse_trace");
    const std::string bytes = recordTraceBytes(trace.path, 41000);

    ServiceFixture fixture;
    ServiceClient client(fixture.config.socket_path);

    // Unknown / corrupt stream ids.
    EXPECT_THROW((void)client.streamAppend(999, "x"), ServiceError);
    EXPECT_THROW((void)client.streamStatus(999), ServiceError);
    EXPECT_THROW((void)client.streamClose(999), ServiceError);
    {
        const int fd = connectToServer(fixture.config.socket_path);
        for (const char *body :
             {"stream=-1", "stream=abc", "stream=", "strea",
              "stream=1x"}) {
            proto::Request request;
            request.op = proto::Opcode::StreamClose;
            request.body = body;
            proto::writeRequest(fd, request);
            EXPECT_FALSE(proto::readReply(fd).ok) << body;
        }
        // STREAM-APPEND with no id line at all.
        proto::Request request;
        request.op = proto::Opcode::StreamAppend;
        request.body = "no newline anywhere";
        proto::writeRequest(fd, request);
        EXPECT_FALSE(proto::readReply(fd).ok);
        ::close(fd);
    }

    // Directives the session layer would fatal() on must be rejected
    // as error replies at open.
    EXPECT_THROW((void)client.streamOpen("workload bzip2\n"),
                 ServiceError);
    EXPECT_THROW((void)client.streamOpen("config c confidence=95\n"),
                 ServiceError);
    EXPECT_THROW((void)client.streamOpen("methods smarts\n"),
                 ServiceError);
    EXPECT_THROW((void)client.streamOpen("gibberish line\n"),
                 ServiceError);

    // Garbage header bytes poison the stream: the append errors and
    // the id is reclaimed.
    {
        const std::uint64_t id = client.streamOpen(directives);
        EXPECT_THROW((void)client.streamAppend(id, std::string(64, 'Z')),
                     ServiceError);
        EXPECT_THROW((void)client.streamStatus(id), ServiceError);
    }

    // A header declaring fewer records than the schedule needs.
    {
        const std::uint64_t id = client.streamOpen(directives);
        std::string small = bytes;
        workload::le::putU64(
            reinterpret_cast<std::uint8_t *>(small.data()) + 16, 7);
        EXPECT_THROW((void)client.streamAppend(id, small),
                     ServiceError);
    }

    // Overflow: bytes past the declared record count, delivered in
    // one oversized append. Must error before any window feed.
    {
        const std::uint64_t id = client.streamOpen(directives);
        EXPECT_THROW((void)client.streamAppend(
                         id, bytes + std::string(32, '\0')),
                     ServiceError);
        EXPECT_THROW((void)client.streamStatus(id), ServiceError);
    }

    // Mid-record tail at close: the close errors but the stream stays
    // open, and completing the record lets it close cleanly.
    {
        const std::uint64_t id = client.streamOpen(directives);
        client.streamAppend(id, bytes.substr(0, bytes.size() - 13));
        EXPECT_THROW((void)client.streamClose(id), ServiceError);
        const auto st = client.streamStatus(id); // still alive
        EXPECT_EQ(st.windows_total, 1u);
        client.streamAppend(id, bytes.substr(bytes.size() - 13));
        const auto closed = client.streamClose(id);
        EXPECT_EQ(closed.windows, 1u);
        // Append after close: the id no longer exists.
        EXPECT_THROW((void)client.streamAppend(id, "x"), ServiceError);
        EXPECT_THROW((void)client.streamClose(id), ServiceError);
    }

    // After all that abuse the service still runs normal work: no
    // leaked state, no poisoned connection slots.
    const auto info = client.submit(tiny_manifest);
    ServiceFixture::waitFor([&] { return client.jobDone(info.job); },
                            "job after stream abuse");
    EXPECT_STREQ(client.jobStatus(info.job).state(), "done");
}

// --------------------------------------------- malformed server replies

/**
 * A SocketServer that answers every request with the next canned reply
 * body, regardless of the request — the harness for exercising the
 * typed client's *reply* parsing against a server it cannot trust.
 */
struct ScriptedServer
{
    TempPath root{"scripted"};
    std::mutex mutex;
    std::deque<std::string> replies;
    SocketServer server;

    ScriptedServer()
        : server(root.path + "/srv.sock",
                 [this](const proto::Request &, std::uint64_t) {
                     std::lock_guard<std::mutex> lock(mutex);
                     if (replies.empty())
                         return proto::Reply::error("script exhausted");
                     proto::Reply reply =
                         proto::Reply::success(std::move(replies.front()));
                     replies.pop_front();
                     return reply;
                 })
    {
        std::filesystem::create_directories(root.path);
        server.start();
    }

    ~ScriptedServer() { server.stop(); }

    void
    push(std::string body)
    {
        std::lock_guard<std::mutex> lock(mutex);
        replies.push_back(std::move(body));
    }
};

TEST(Service, MalformedSubmitReplyFieldsAreRejected)
{
    ScriptedServer scripted;
    ServiceClient client(scripted.server.path());

    // Every malformed job=/cells= value must surface as a ServiceError
    // from the strict parser — not whatever a raw std::stoull would
    // improvise ("-1" accepted by wraparound, "12x" silently truncated,
    // "abc" escaping as std::invalid_argument) — and must not poison
    // the connection for the next exchange.
    for (const char *reply : {
             "job=abc cells=2\n",                     // non-numeric
             "job=-1 cells=2\n",                      // signed
             "job=12x cells=2\n",                     // trailing junk
             "job=99999999999999999999999 cells=1\n", // overflow
             "job=7 cells=2x\n",                      // junk in cells=
             "cells=2\n",                             // job= missing
         }) {
        scripted.push(reply);
        EXPECT_THROW((void)client.submit(tiny_manifest), ServiceError)
            << reply;
    }

    // The same connection still completes a well-formed exchange.
    scripted.push("job=7 cells=3\n");
    const auto info = client.submit(tiny_manifest);
    EXPECT_EQ(info.job, 7u);
    EXPECT_EQ(info.cells, 3u);
}

TEST(Service, JobDoneParsesStateTokenNotSubstring)
{
    ScriptedServer scripted;
    ServiceClient client(scripted.server.path());

    // Regression: the status line ends with the client-controlled job
    // name. A manifest named "state=done.plan" must not spoof
    // completion of its still-running job via substring search.
    scripted.push("job=9 state=queued cells=4 done=0 failed=0 "
                  "priority=100 source=spool name=state=done.plan\n");
    EXPECT_FALSE(client.jobDone(9));

    scripted.push("job=9 state=done cells=4 done=4 failed=0 "
                  "priority=100 source=spool name=state=done.plan\n");
    EXPECT_TRUE(client.jobDone(9));

    scripted.push("job=9 state=failed cells=4 done=4 failed=1 "
                  "priority=100 source=socket name=short.plan\n");
    EXPECT_TRUE(client.jobDone(9));

    // A reply with no state token at all is malformed, not "not done":
    // treating it as false would spin a polling loop forever.
    scripted.push("job=9 cells=4\n");
    EXPECT_THROW((void)client.jobDone(9), ServiceError);

    // The state token is redundant with the counters; a line where
    // they disagree is truncated or reassembled, never canonical.
    scripted.push("job=9 state=done cells=4 done=2 failed=0 "
                  "priority=100 source=socket name=short.plan\n");
    EXPECT_THROW((void)client.jobDone(9), ServiceError);
}

// -------------------------------------------------------- frame fuzzer

/** splitmix64: tiny, seedable, good enough to drive a fuzz corpus. */
struct FuzzRng
{
    std::uint64_t state;

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
};

/** A well-formed frame (request opcode or reply status @p code). */
std::string
rawFrame(std::uint32_t code, const std::string &body)
{
    std::string frame(16 + body.size(), '\0');
    std::memcpy(frame.data(), proto::magic, 8);
    workload::le::putU32(
        reinterpret_cast<std::uint8_t *>(frame.data()) + 8, code);
    workload::le::putU32(
        reinterpret_cast<std::uint8_t *>(frame.data()) + 12,
        std::uint32_t(body.size()));
    std::memcpy(frame.data() + 16, body.data(), body.size());
    return frame;
}

/**
 * The fuzz corpus: 600+ seeded-random frames, each corrupted in a way
 * that *guarantees* invalidity (so "throws ServiceError" is a stable
 * assertion under any refactoring of the parser). Every case must
 * throw — never crash, never hang, never allocate from the corrupted
 * length. Runs under ASan/UBSan in the sanitize CI job like the rest
 * of this binary.
 */
TEST(ProtocolFuzz, CorruptFramesAlwaysThrowNeverCrash)
{
    FuzzRng rng{0xd15ea5ef0221ull};
    int request_cases = 0, reply_cases = 0;

    for (int i = 0; i < 640; ++i) {
        const bool fuzz_request = (rng.next() & 1) != 0;
        // A random but structurally valid starting frame (every
        // client-originated opcode, including the TRACE-STREAM trio
        // and WAIT).
        static constexpr std::uint32_t request_codes[] = {
            1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 16};
        const std::uint32_t good_code =
            fuzz_request ? request_codes[rng.next() %
                                         std::size(request_codes)]
                         : std::uint32_t(rng.next() % 3);
        std::string body(rng.next() % 48, '\0');
        for (auto &c : body)
            c = char(rng.next() & 0xff);
        // A COMPLETE whose random body happens to say more=1 would
        // legitimately wait for continuation frames; pin more=0 so the
        // base frame is self-contained and only our corruption breaks
        // it.
        if (fuzz_request && good_code == 8)
            body = "lease=1 status=ok more=0\n" + body;
        std::string frame = rawFrame(good_code, body);

        enum
        {
            BadMagic,
            BadCode,
            OversizedLength,
            Truncated,
            StrayContinuation,
            BrokenStream,
            Corruptions
        };
        const auto corruption = int(rng.next() % Corruptions);
        bool stray_is_request = fuzz_request;
        switch (corruption) {
          case BadMagic: {
            const std::size_t at = rng.next() % 8;
            frame[at] = char(frame[at] ^ (1 + (rng.next() % 255)));
            break;
          }
          case BadCode: {
            // Requests: the retired 14 and 15 (STREAM-LEASE,
            // STREAM-HANDOFF) and opcodes past WAIT are unknown.
            // Replies: statuses past status_part are unknown.
            const std::uint32_t pick = std::uint32_t(rng.next() % 100000);
            const std::uint32_t bad =
                !fuzz_request ? 3 + pick
                : pick % 4 == 0 ? 14 + pick / 4 % 2
                                : 17 + pick;
            workload::le::putU32(
                reinterpret_cast<std::uint8_t *>(frame.data()) + 8,
                bad);
            break;
          }
          case OversizedLength: {
            const std::uint32_t bad =
                proto::max_body + 1 +
                std::uint32_t(rng.next() % 100000);
            workload::le::putU32(
                reinterpret_cast<std::uint8_t *>(frame.data()) + 12,
                bad);
            // No body follows: the reader must reject the length
            // *before* trying to allocate or read it.
            frame.resize(16);
            break;
          }
          case Truncated: {
            // Any strict, non-empty prefix: a cut header, or a body
            // shorter than the header promised. (A zero-byte prefix
            // would be a clean EOF, which is legal between frames.)
            if (body.empty()) // make sure there is a body to cut
                frame = rawFrame(good_code, "x");
            frame.resize(1 + rng.next() % (frame.size() - 1));
            break;
          }
          case StrayContinuation: {
            // RESULT-PART/RESULT-END outside a COMPLETE stream is a
            // protocol violation even though the frame is well-formed.
            frame = rawFrame(9 + std::uint32_t(rng.next() % 2), body);
            stray_is_request = true;
            break;
          }
          case BrokenStream: {
            // A COMPLETE that opens a stream, then violates it: a
            // non-continuation opcode mid-stream or EOF before
            // RESULT-END.
            frame = rawFrame(8, "lease=1 status=ok more=1\n");
            if (rng.next() & 1)
                frame += rawFrame(1 + std::uint32_t(rng.next() % 5),
                                  "not a continuation");
            stray_is_request = true;
            break;
          }
        }

        FdPair pair;
        proto::writeAll(pair.fds[0], frame.data(), frame.size());
        ::close(pair.fds[0]);
        pair.fds[0] = -1;
        const bool as_request =
            corruption == StrayContinuation ||
            corruption == BrokenStream ? stray_is_request
                                       : fuzz_request;
        if (as_request) {
            EXPECT_THROW((void)proto::readRequest(pair.fds[1]),
                         ServiceError)
                << "case " << i << " corruption " << corruption;
            ++request_cases;
        } else {
            EXPECT_THROW((void)proto::readReply(pair.fds[1]),
                         ServiceError)
                << "case " << i << " corruption " << corruption;
            ++reply_cases;
        }
    }
    // The corpus genuinely exercised both directions at scale.
    EXPECT_GE(request_cases + reply_cases, 500);
    EXPECT_GE(request_cases, 100);
    EXPECT_GE(reply_cases, 100);
}

TEST(ProtocolFuzz, GarbageConnectionsDoNotLeakServerSlots)
{
    // Hammer a live daemon with malformed openings; every connection
    // must be dropped and its slot reclaimed, leaving the server fully
    // usable for a well-formed client afterwards.
    ServiceFixture fixture;
    FuzzRng rng{42};
    for (int i = 0; i < 32; ++i) {
        const int fd = connectToServer(fixture.config.socket_path);
        std::string garbage(1 + rng.next() % 64, '\0');
        for (auto &c : garbage)
            c = char(rng.next() & 0xff);
        garbage[0] = 'X'; // never a valid magic
        try {
            proto::writeAll(fd, garbage.data(), garbage.size());
            // Half-close so a server still waiting for header bytes
            // sees EOF at once (instead of its read timeout), then
            // drain until it drops us — the write is known-delivered
            // before the next round.
            ::shutdown(fd, SHUT_WR);
            char sink[64];
            while (::read(fd, sink, sizeof(sink)) > 0) {}
        } catch (const ServiceError &) {
            // Server already dropped us mid-write: equally fine.
        }
        ::close(fd);
    }

    ServiceClient client(fixture.config.socket_path);
    const auto info = client.submit(tiny_manifest);
    ServiceFixture::waitFor([&] { return client.jobDone(info.job); },
                            "job after garbage storm");
    EXPECT_EQ(client.status().jobs_submitted, 1u);
}

// --------------------------------------------- chunked frame boundaries

/**
 * Reply bodies one byte under, at, and over the frame cap round-trip
 * through writeReply/readReply; past the cap they travel as
 * status_part chunks. A writer thread keeps the socketpair from
 * deadlocking on its finite buffer.
 */
TEST(ProtocolChunk, ReplyBoundariesRoundTrip)
{
    for (const std::size_t size :
         {std::size_t(proto::max_body) - 1,
          std::size_t(proto::max_body),
          std::size_t(proto::max_body) + 1,
          2 * std::size_t(proto::max_body) + 5}) {
        FdPair pair;
        std::string body(size, '\0');
        for (std::size_t i = 0; i < size; i += 4096)
            body[i] = char('a' + (i / 4096) % 26);
        body.back() = 'z';

        std::thread writer([&] {
            proto::writeReply(pair.fds[0],
                              proto::Reply::success(body));
        });
        const auto reply = proto::readReply(pair.fds[1]);
        writer.join();
        EXPECT_TRUE(reply.ok);
        ASSERT_EQ(reply.body.size(), size);
        EXPECT_EQ(reply.body, body);
    }
}

TEST(ProtocolChunk, CompleteRequestBoundariesRoundTrip)
{
    // The COMPLETE header is part of the frame, so the inline/chunked
    // switch happens at max_body - |header + " more=0\n"|: probe one
    // byte under, at, and over that exact point, plus a payload past
    // the cap itself (two continuation frames).
    const std::string header = "lease=7 status=ok more=0\n";
    const std::size_t inline_max =
        std::size_t(proto::max_body) - header.size();
    for (const std::size_t size :
         {inline_max - 1, inline_max, inline_max + 1,
          std::size_t(proto::max_body) + 3}) {
        FdPair pair;
        std::string payload(size, '\0');
        for (std::size_t i = 0; i < size; i += 4096)
            payload[i] = char('A' + (i / 4096) % 26);
        payload.back() = 'Z';

        std::thread writer([&] {
            proto::writeCompleteRequest(pair.fds[0], 7, true, payload);
        });
        const auto request = proto::readRequest(pair.fds[1]);
        writer.join();
        ASSERT_TRUE(request.has_value());
        EXPECT_EQ(request->op, proto::Opcode::Complete);

        // Header line intact (modulo the more= transport detail), the
        // payload byte-identical.
        const std::size_t eol = request->body.find('\n');
        ASSERT_NE(eol, std::string::npos);
        EXPECT_NE(request->body.substr(0, eol).find("lease=7"),
                  std::string::npos);
        EXPECT_NE(request->body.substr(0, eol).find("status=ok"),
                  std::string::npos);
        const std::string got = request->body.substr(eol + 1);
        ASSERT_EQ(got.size(), size);
        EXPECT_EQ(got, payload);
    }
}

// ------------------------------------------------------- poll backoff

TEST(Client, PollBackoffIsCappedDeterministicAndGrows)
{
    constexpr unsigned base = 25, cap = 1000;
    for (const std::uint64_t seed : {0ull, 1ull, 42ull, 0xdeadull}) {
        for (unsigned attempt = 0; attempt < 64; ++attempt) {
            const unsigned delay =
                pollBackoffMs(attempt, base, cap, seed);
            // Nominal (pre-jitter) delay: base doubling, saturating.
            std::uint64_t nominal = base;
            for (unsigned i = 0; i < attempt && nominal < cap; ++i)
                nominal *= 2;
            if (nominal > cap)
                nominal = cap;
            // The cap is a *cap*: jitter only subtracts (regression —
            // additive jitter would overshoot it).
            EXPECT_LE(delay, cap) << "attempt " << attempt;
            EXPECT_LE(delay, nominal) << "attempt " << attempt;
            EXPECT_GE(delay, nominal - nominal / 4)
                << "attempt " << attempt;
            // Deterministic: same (attempt, seed) -> same delay.
            EXPECT_EQ(delay, pollBackoffMs(attempt, base, cap, seed));
        }
    }
    // Degenerate parameters stay sane: huge attempts don't overflow
    // past the cap, zero base is bumped to 1 ms (jitter span 1 ->
    // exactly 1), an inverted cap clamps to the base.
    EXPECT_LE(pollBackoffMs(100000, base, cap, 7), cap);
    EXPECT_EQ(pollBackoffMs(0, 0, cap, 7), 1u);
    EXPECT_LE(pollBackoffMs(9, 100, 1, 3), 100u);
}

// ----------------------------------------------- JobQueue edge cases

TEST(Queue, EvictionBoundaryIsExact)
{
    // Job #1 must survive exactly max_finished_jobs completions
    // (itself included) and fall off on completion number
    // max_finished_jobs + 1 — an off-by-one here silently shrinks or
    // grows the STATUS window.
    TableFixture t;
    const auto plan_a = tinyPlan();
    const auto plan_b = tinyPlan(
        "workload bzip2\n"
        "config c llc=4MiB\n"
        "schedule s spacing=200000 regions=2\n");
    const auto plan_c = tinyPlan(
        "workload bzip2\n"
        "config c llc=8MiB\n"
        "schedule s spacing=200000 regions=2\n");

    const auto first = t.add(plan_a, "first");
    ASSERT_EQ(t.table.resolve(plan_a.cells()[0].key, true, "", true).size(),
              1u);

    // max_finished_jobs - 1 more completions (one fan-out): total
    // finished is now exactly max_finished_jobs -> first still there.
    std::uint64_t second = 0;
    for (std::size_t i = 0; i < JobQueue::max_finished_jobs - 1; ++i) {
        const auto id = t.add(plan_b, "bulk");
        if (second == 0)
            second = id;
    }
    ASSERT_EQ(t.table.resolve(plan_b.cells()[0].key, true, "", true).size(),
              JobQueue::max_finished_jobs - 1);
    EXPECT_TRUE(t.table.job(first).has_value())
        << "evicted at the boundary, one completion too early";

    // One more finished job pushes the count to max_finished_jobs + 1:
    // now (and only now) the oldest falls off.
    (void)t.add(plan_c, "straw");
    (void)t.table.resolve(plan_c.cells()[0].key, true, "", true);
    EXPECT_FALSE(t.table.job(first).has_value());
    EXPECT_TRUE(t.table.job(second).has_value());
    EXPECT_EQ(t.table.jobs().size(), JobQueue::max_finished_jobs);
}

TEST(Queue, ConcurrentSubmitsRegisterEachKeyOnce)
{
    // Three plans race in from three threads while a key is pending:
    // the two new keys each become fresh exactly once, the third
    // submitter attaches, and every job finishes exactly once.
    TableFixture t;
    const auto plan_hot = tinyPlan();
    const auto plan_a = tinyPlan(
        "workload bzip2\n"
        "config c llc=4MiB\n"
        "schedule s spacing=200000 regions=2\n");
    const auto plan_b = tinyPlan(
        "workload bzip2\n"
        "config c llc=8MiB\n"
        "schedule s spacing=200000 regions=2\n");
    (void)t.add(plan_hot, "hot");

    std::vector<std::size_t> fresh(3, 9);
    std::vector<std::uint64_t> ids(3, 0);
    std::thread t1([&] { ids[0] = t.add(plan_a, "tie-a", &fresh[0]); });
    std::thread t2([&] { ids[1] = t.add(plan_b, "tie-b", &fresh[1]); });
    std::thread t3(
        [&] { ids[2] = t.add(plan_hot, "attach", &fresh[2]); });
    t1.join();
    t2.join();
    t3.join();
    EXPECT_EQ(fresh, (std::vector<std::size_t>{1, 1, 0}));
    EXPECT_EQ(t.table.counters().cells_deduped, 1u);
    EXPECT_NE(ids[0], ids[1]);

    EXPECT_EQ(t.table.resolve(plan_a.cells()[0].key, true, "", true).size(),
              1u);
    EXPECT_EQ(t.table.resolve(plan_b.cells()[0].key, true, "", true).size(),
              1u);
    const auto finished =
        t.table.resolve(plan_hot.cells()[0].key, true, "", true);
    ASSERT_EQ(finished.size(), 2u); // "hot" + the attached job
    EXPECT_EQ(t.table.counters().jobs_completed, 4u);
    EXPECT_TRUE(t.table.job(ids[2])->complete());
}

TEST(Queue, CloseRacingInFlightCompletionIsSafe)
{
    // close() refuses new jobs but must let an in-flight key resolve
    // from another thread — in any interleaving, without deadlock or
    // lost fan-out.
    for (int round = 0; round < 32; ++round) {
        TableFixture t;
        const auto plan = tinyPlan();
        (void)t.add(plan, "inflight");
        (void)t.add(tinyPlan("workload bzip2\n"
                             "config c llc=4MiB\n"
                             "schedule s spacing=200000 regions=2\n"),
                    "doomed");

        std::vector<FinishedJob> finished;
        std::thread completer([&] {
            finished = t.table.resolve(plan.cells()[0].key, true, "", true);
        });
        std::thread closer([&] { t.table.close(); });
        completer.join();
        closer.join();

        ASSERT_EQ(finished.size(), 1u);
        EXPECT_TRUE(finished[0].status.complete());
        EXPECT_EQ(t.table.counters().cells_pending, 1u); // "doomed"
        EXPECT_THROW((void)t.add(plan, "late"), ServiceError);
    }
}

// ------------------------------------------------- executors

/** A cell of most of a second: holds a one-thread daemon's only drain
 *  loop busy while a test queues more work behind it. */
constexpr const char *busy_manifest =
    "workload bzip2\n"
    "config c llc=2MiB\n"
    "schedule s spacing=4000000 regions=4\n"
    "methods delorean\n";

/** A one-cell plan of about 0.2 s, distinct per @p llc_mib. */
std::string
orderedManifest(unsigned llc_mib)
{
    return "workload bzip2\nconfig c llc=" + std::to_string(llc_mib) +
           "MiB\nschedule s spacing=2000000 regions=2\n"
           "methods delorean\n";
}

/** Submit one-cell jobs to @p socket: "low" at priority 1, a tied
 *  pair at 5 from two threads at once, then "high" at 9. @return their
 *  ids in the order an executor must take them: high, the tie by job
 *  id, low. */
std::vector<std::uint64_t>
submitPriorityMix(const std::string &socket)
{
    ServiceClient client(socket);
    const std::uint64_t low = client.submit(orderedManifest(1), 1).job;
    std::uint64_t tie[2] = {0, 0};
    std::thread a([&] {
        tie[0] = ServiceClient(socket).submit(orderedManifest(2), 5).job;
    });
    std::thread b([&] {
        tie[1] = ServiceClient(socket).submit(orderedManifest(4), 5).job;
    });
    a.join();
    b.join();
    const std::uint64_t high = client.submit(orderedManifest(8), 9).job;
    return {high, std::min(tie[0], tie[1]), std::max(tie[0], tie[1]), low};
}

TEST(Service, DrainLoopRunsPriorityThenSubmissionOrder)
{
    // One drain loop, held busy while four one-cell jobs queue behind
    // it: the highest priority runs first, then the tied pair in job-id
    // order, then the lowest. A WAIT answers once its job settles and
    // the loop starts the next cell only after that; each cell runs
    // ~0.2 s, so every job still queued is not done when it answers.
    ServiceFixture fixture(/*with_spool=*/false, /*threads=*/1);
    ServiceClient client(fixture.config.socket_path);
    const auto busy = client.submit(busy_manifest);
    const auto order = submitPriorityMix(fixture.config.socket_path);
    ASSERT_FALSE(client.jobDone(busy.job))
        << "the busy cell ended before the queue filled";

    for (std::size_t i = 0; i < order.size(); ++i) {
        ASSERT_TRUE(client.waitForJob(order[i], 120.0));
        EXPECT_STREQ(client.jobStatus(order[i]).state(), "done");
        for (std::size_t j = i + 1; j < order.size(); ++j)
            EXPECT_FALSE(client.jobDone(order[j]))
                << "job " << order[j] << " ran before job " << order[i];
    }
    EXPECT_EQ(fixture.service->cellsExecuted(), 5u);
}

TEST(Service, ShutdownAbandonsQueuedCellsAndKeepsTheirManifest)
{
    // Shutdown lets the running cell finish and publish, but the drain
    // loop returns instead of running what is queued: a spool manifest
    // whose cells never ran stays in the spool for the next serve.
    ServiceFixture fixture(/*with_spool=*/true, /*threads=*/1);
    ServiceClient client(fixture.config.socket_path);
    const auto busy = client.submit(busy_manifest);
    const std::string spool = fixture.config.spool_dir;
    writeFile(spool + "/queued.plan", tiny_manifest);
    ServiceFixture::waitFor(
        [&] { return client.status().jobs_submitted == 2; },
        "the spool pickup");
    ASSERT_FALSE(client.jobDone(busy.job))
        << "the busy cell ended before shutdown";

    fixture.service->requestShutdown();
    fixture.runner.join(); // every drain loop left its wait

    const batch::ResultCache &cache = fixture.service->cache();
    EXPECT_TRUE(cache.contains(tinyPlan(busy_manifest).cells()[0].key));
    EXPECT_FALSE(cache.contains(tinyPlan().cells()[0].key));
    EXPECT_TRUE(std::filesystem::exists(spool + "/queued.plan"));
    EXPECT_FALSE(std::filesystem::exists(spool + "/done/queued.plan"));
    EXPECT_FALSE(std::filesystem::exists(spool + "/failed/queued.plan"));
    EXPECT_EQ(fixture.service->counters().jobs_completed, 1u);
    EXPECT_EQ(fixture.service->cellsExecuted(), 1u);
}

/** One cell of four windows: the shape of a lone miss. */
constexpr const char *four_window_manifest =
    "workload bzip2\n"
    "config c llc=2MiB\n"
    "schedule s spacing=1000000 regions=4\n"
    "methods delorean\n";

TEST(Service, LoneCellSpreadsItsWindowsOverIdleDrainLoops)
{
    // Three drain loops, one cell: the two loops that find the heap
    // empty run some of its windows, and the result does not move.
    ServiceFixture fixture(/*with_spool=*/false, /*threads=*/3);
    ServiceClient client(fixture.config.socket_path);
    const auto info = client.submit(four_window_manifest);
    ASSERT_TRUE(client.waitForJob(info.job, 120.0));
    EXPECT_STREQ(client.jobStatus(info.job).state(), "done");

    const auto cell = tinyPlan(four_window_manifest).cells()[0];
    EXPECT_EQ(client.result(cell.key), batch::BatchRunner::runCell(cell));
    EXPECT_EQ(fixture.service->cellsExecuted(), 1u);
    EXPECT_GT(fixture.service->windowsLent(), 0u);
    EXPECT_LE(fixture.service->peakBusyLoops(), 3u);
}

TEST(Service, CellsAndLentWindowsShareOneThreadBudget)
{
    // Four cells queued on two drain loops: cells come first, and the
    // loop that empties the heap helps the other's last cell. At no
    // moment do more than two cells and lent windows run.
    const char *manifest = "workload bzip2\n"
                           "config a llc=1MiB\n"
                           "config b llc=2MiB\n"
                           "config c llc=4MiB\n"
                           "config d llc=8MiB\n"
                           "schedule s spacing=1000000 regions=4\n"
                           "methods delorean\n";
    ServiceFixture fixture(/*with_spool=*/false, /*threads=*/2);
    ServiceClient client(fixture.config.socket_path);
    const auto info = client.submit(manifest);
    ASSERT_TRUE(client.waitForJob(info.job, 120.0));
    EXPECT_STREQ(client.jobStatus(info.job).state(), "done");
    EXPECT_EQ(fixture.service->cellsExecuted(), 4u);
    EXPECT_LE(fixture.service->peakBusyLoops(), 2u);
    const auto plan = tinyPlan(manifest);
    for (const auto &cell : plan.cells())
        EXPECT_EQ(client.result(cell.key),
                  batch::BatchRunner::runCell(cell))
            << cell.config_name;
}

TEST(Service, FileReRecordedWhileQueuedFailsTheJob)
{
    // The drain loop's re-record guard: a file plan is keyed at
    // SUBMIT, waits behind a busy cell while its file is re-recorded,
    // and then runs on the new bytes — whose result must not be stored
    // under the stale key.
    TempPath trace("queued_rerecord");
    (void)recordTraceBytes(trace.path, 400000);
    const std::string manifest =
        "workload file:" + trace.path + "\n" + stream_directives;
    const batch::CacheKey stale = tinyPlan(manifest.c_str()).cells()[0].key;

    ServiceFixture fixture(/*with_spool=*/false, /*threads=*/1);
    ServiceClient client(fixture.config.socket_path);
    const auto busy = client.submit(busy_manifest);
    const auto info = client.submit(manifest);
    {
        auto source = workload::makeTrace("spec:mcf");
        workload::recordTrace(*source, 400000, trace.path);
    }
    ASSERT_FALSE(client.jobDone(busy.job))
        << "the busy cell ended before the re-record";
    ASSERT_TRUE(client.waitForJob(info.job, 120.0));

    const JobStatus status = client.jobStatus(info.job);
    EXPECT_STREQ(status.state(), "failed");
    EXPECT_NE(status.first_error.find("file changed after the plan was keyed"),
              std::string::npos)
        << status.first_error;
    EXPECT_FALSE(fixture.service->cache().contains(stale));
}

// -------------------------------------------------- fleet coordinator

/**
 * A four-cell plan that forms exactly TWO work units. Co-scheduling
 * groups by trace + schedule (geometry is per-cell — one decode pass
 * covers many cache sizes), so the two geometries share a unit while
 * the two schedules split them: unit A = {c1/s1, c2/s1}, unit B =
 * {c1/s2, c2/s2}. Two units give two workers real concurrent leases.
 */
constexpr const char *fleet_manifest =
    "workload bzip2\n"
    "config c1 llc=2MiB\n"
    "config c2 llc=8MiB\n"
    "schedule s1 spacing=200000 regions=2\n"
    "schedule s2 spacing=300000 regions=2\n"
    "methods delorean\n";

/** SUBMIT body: u32 LE priority + manifest text. */
std::string
submitBody(const std::string &text, std::uint32_t priority = 10)
{
    std::string body(4, '\0');
    workload::le::putU32(reinterpret_cast<std::uint8_t *>(body.data()),
                         priority);
    return body + text;
}

proto::Request
makeRequest(proto::Opcode op, std::string body)
{
    proto::Request request;
    request.op = op;
    request.body = std::move(body);
    return request;
}

/** First "<key>=" token value on the first line of @p text ("" if
 *  absent). */
std::string
tokenOf(const std::string &text, const std::string &key)
{
    const std::size_t eol = text.find('\n');
    std::istringstream is(
        eol == std::string::npos ? text : text.substr(0, eol));
    std::string token;
    const std::string prefix = key + "=";
    while (is >> token)
        if (token.rfind(prefix, 0) == 0)
            return token.substr(prefix.size());
    return "";
}

/**
 * A Coordinator serving on its own thread against temp directories,
 * shut down on scope exit. Workers attach via workerConfig().
 */
struct CoordinatorFixture
{
    TempPath root{"coord"};
    CoordinatorConfig config;
    std::unique_ptr<Coordinator> coordinator;
    std::thread runner;

    explicit CoordinatorFixture(unsigned lease_ms = 10000)
    {
        std::filesystem::create_directories(root.path);
        config.socket_path = root.path + "/coord.sock";
        config.cache_dir = root.path + "/cache";
        config.lease_ms = lease_ms;
        coordinator = std::make_unique<Coordinator>(config);
        runner = std::thread([this] { coordinator->run(); });
        ServiceFixture::waitFor(
            [&] { return ServiceClient::ping(config.socket_path); },
            "coordinator socket to come up");
    }

    ~CoordinatorFixture()
    {
        coordinator->requestShutdown();
        runner.join();
    }

    WorkerConfig
    workerConfig(const std::string &name) const
    {
        WorkerConfig worker;
        worker.coordinator = config.socket_path;
        worker.cache_dir = root.path + "/wcache_" + name;
        worker.threads = 1;
        worker.name = name;
        return worker;
    }
};

// The fleet acceptance bar: a coordinator + two workers produce
// results bit-identical (MethodResult::operator==) to a direct serial
// run of the same plan.
TEST(Coordinator, TwoWorkerFleetIsBitIdenticalToSerialRun)
{
    const auto plan = tinyPlan(fleet_manifest);
    std::vector<sampling::MethodResult> direct;
    for (const auto &cell : plan.cells())
        direct.push_back(batch::BatchRunner::runCell(cell));

    // A lease long enough that even a sanitizer-slowed unit cannot
    // expire: this test pins the *no-fault* counters exactly
    // (executed == 4, discarded == 0), so no unit may ever re-queue.
    CoordinatorFixture fixture(/*lease_ms=*/120000);
    WorkerLoop alpha(fixture.workerConfig("alpha"));
    WorkerLoop beta(fixture.workerConfig("beta"));
    alpha.start();
    beta.start();

    ServiceClient client(fixture.config.socket_path);
    const auto info = client.submit(fleet_manifest);
    EXPECT_EQ(info.cells, 4u);
    ASSERT_TRUE(client.waitForJob(info.job, 120.0));
    ASSERT_STREQ(client.jobStatus(info.job).state(), "done")
        << jobStatusLine(client.jobStatus(info.job));

    for (std::size_t i = 0; i < plan.cells().size(); ++i)
        EXPECT_EQ(client.result(plan.cells()[i].key), direct[i])
            << "cell " << i;

    alpha.stop();
    beta.stop();
    const auto counters = fixture.coordinator->counters();
    EXPECT_EQ(counters.jobs_completed, 1u);
    EXPECT_EQ(counters.results_stored, 4u);
    EXPECT_EQ(counters.results_discarded, 0u);
    // Both workers' pull loops participated... or one raced ahead;
    // either way every cell ran exactly once across the fleet.
    const auto a = alpha.counters(), b = beta.counters();
    EXPECT_EQ(a.cells_executed + b.cells_executed, 4u);

    // Re-submission is served from the coordinator's cache: zero new
    // leases needed.
    const auto again = client.submit(fleet_manifest);
    ASSERT_TRUE(client.waitForJob(again.job, 120.0));
    const auto after = fixture.coordinator->counters();
    EXPECT_EQ(after.cells_cached, 4u);
    EXPECT_EQ(after.results_stored, 4u);
}

TEST(Coordinator, WorkerKilledMidPlanDoesNotChangeResults)
{
    const auto plan = tinyPlan(fleet_manifest);
    std::vector<sampling::MethodResult> direct;
    for (const auto &cell : plan.cells())
        direct.push_back(batch::BatchRunner::runCell(cell));

    // Short leases so the victim's abandoned unit re-queues quickly.
    CoordinatorFixture fixture(/*lease_ms=*/400);
    ServiceClient client(fixture.config.socket_path);
    const auto info = client.submit(fleet_manifest);

    // The victim pulls at least one lease, then "crashes": its
    // in-flight unit is never COMPLETEd, the lease expires, and the
    // survivor re-runs it.
    WorkerLoop victim(fixture.workerConfig("victim"));
    victim.start();
    ServiceFixture::waitFor(
        [&] {
            return fixture.coordinator->counters().leases_granted >= 1;
        },
        "victim to take a lease");
    victim.kill();

    WorkerLoop survivor(fixture.workerConfig("survivor"));
    survivor.start();
    ASSERT_TRUE(client.waitForJob(info.job, 120.0));
    ASSERT_STREQ(client.jobStatus(info.job).state(), "done")
        << jobStatusLine(client.jobStatus(info.job));
    survivor.stop();

    // Bit-identical merged results despite the mid-plan crash.
    for (std::size_t i = 0; i < plan.cells().size(); ++i)
        EXPECT_EQ(client.result(plan.cells()[i].key), direct[i])
            << "cell " << i;
    EXPECT_EQ(fixture.coordinator->counters().jobs_completed, 1u);
}

TEST(Coordinator, UnitLongerThanItsLeaseIsRenewedNotRerun)
{
    // One two-cell unit that runs for several 300 ms lease periods. The
    // worker renews while it runs, so the other worker's parked LEASE
    // never sees an expiry to re-lease: each cell runs exactly once.
    constexpr const char *long_manifest =
        "workload bzip2\n"
        "config c1 llc=2MiB\n"
        "config c2 llc=8MiB\n"
        "schedule s spacing=4000000 regions=4\n"
        "methods delorean\n";
    CoordinatorFixture fixture(/*lease_ms=*/300);
    WorkerLoop alpha(fixture.workerConfig("alpha"));
    WorkerLoop beta(fixture.workerConfig("beta"));
    alpha.start();
    beta.start();

    ServiceClient client(fixture.config.socket_path);
    const auto info = client.submit(long_manifest);
    ASSERT_TRUE(client.waitForJob(info.job, 120.0));
    EXPECT_STREQ(client.jobStatus(info.job).state(), "done");
    alpha.stop();
    beta.stop();

    const auto counters = fixture.coordinator->counters();
    EXPECT_EQ(counters.leases_granted, 1u);
    EXPECT_GE(counters.leases_renewed, 1u);
    EXPECT_EQ(counters.leases_expired, 0u);
    EXPECT_EQ(counters.results_discarded, 0u);
    EXPECT_EQ(counters.results_stored, 2u);
    EXPECT_EQ(alpha.counters().cells_executed + beta.counters().cells_executed,
              2u);
}

TEST(Coordinator, FileReRecordedBeforeTheLeaseFailsTheJob)
{
    // The re-record guard on the lease path, deterministically: the
    // coordinator keys the plan at SUBMIT, the file is re-recorded,
    // and only then does a worker take the lease.
    TempPath trace("rerecord_trace");
    (void)recordTraceBytes(trace.path, 400000);
    const std::string manifest =
        "workload file:" + trace.path + "\n" + stream_directives;
    const batch::CacheKey stale = tinyPlan(manifest.c_str()).cells()[0].key;

    CoordinatorFixture fixture;
    ServiceClient client(fixture.config.socket_path);
    const auto info = client.submit(manifest);
    {
        auto source = workload::makeTrace("spec:mcf");
        workload::recordTrace(*source, 400000, trace.path);
    }
    WorkerLoop worker(fixture.workerConfig("w"));
    worker.start();
    ASSERT_TRUE(client.waitForJob(info.job, 120.0));
    worker.stop();

    const JobStatus status = client.jobStatus(info.job);
    EXPECT_STREQ(status.state(), "failed");
    EXPECT_NE(status.first_error.find("key mismatch after re-expansion"),
              std::string::npos)
        << status.first_error;
    // Nothing was published under the stale key, on either side.
    EXPECT_FALSE(fixture.coordinator->cache().contains(stale));
    EXPECT_FALSE(batch::ResultCache(fixture.root.path + "/wcache_w")
                     .contains(stale));
    EXPECT_EQ(worker.counters().cells_executed, 0u);
}

TEST(Coordinator, FileReRecordedWhileTheUnitRunsFailsTheJob)
{
    // The after-run re-record guard on the lease path. The worker
    // starts renewing once the unit's keys check out, so by the first
    // renewal it is running the unit — 96 co-scheduled cells, most of
    // a second — and the file is replaced under it. The results must
    // not be published under the stale keys.
    TempPath trace("unit_rerecord"), next("unit_rerecord_next");
    (void)recordTraceBytes(trace.path, 400000);
    {
        // A name as long as bzip2's keeps the header the same size, so
        // the running unit goes on reading well-formed records.
        auto source = workload::makeTrace("spec:hmmer");
        workload::recordTrace(*source, 400000, next.path);
    }
    std::string manifest = "workload file:" + trace.path + "\n";
    for (int i = 1; i <= 96; ++i)
        manifest += "config c" + std::to_string(i) +
                    " llc=2MiB seed=" + std::to_string(i) + "\n";
    manifest += "schedule s spacing=200000 regions=2\nmethods delorean\n";
    const auto plan = tinyPlan(manifest.c_str());

    CoordinatorFixture fixture(/*lease_ms=*/300);
    ServiceClient client(fixture.config.socket_path);
    const auto info = client.submit(manifest);
    WorkerLoop worker(fixture.workerConfig("w"));
    worker.start();
    ServiceFixture::waitFor(
        [&] { return fixture.coordinator->counters().leases_renewed >= 1; },
        "the running unit's first renewal");
    std::filesystem::rename(next.path, trace.path);
    ASSERT_TRUE(client.waitForJob(info.job, 120.0));
    worker.stop();

    const JobStatus status = client.jobStatus(info.job);
    EXPECT_STREQ(status.state(), "failed");
    EXPECT_NE(status.first_error.find("file changed after the plan was keyed"),
              std::string::npos)
        << status.first_error;
    const batch::ResultCache worker_cache(fixture.root.path + "/wcache_w");
    for (const auto &cell : plan.cells()) {
        EXPECT_FALSE(fixture.coordinator->cache().contains(cell.key));
        EXPECT_FALSE(worker_cache.contains(cell.key));
    }
    EXPECT_EQ(worker.counters().cells_executed, 0u);
    EXPECT_EQ(fixture.coordinator->counters().leases_granted, 1u);
}

TEST(Coordinator, LeasesFollowPriorityThenSubmissionOrder)
{
    // With no worker attached the units wait in the ready queue, and
    // LEASE hands them out highest priority first, then in job-id
    // order within a priority — the daemon's drain order, on leases.
    CoordinatorFixture fixture;
    const auto order = submitPriorityMix(fixture.config.socket_path);
    ServiceClient client(fixture.config.socket_path);
    for (const std::uint64_t job : order) {
        const auto lease = client.lease("order");
        ASSERT_FALSE(lease.idle);
        EXPECT_EQ(lease.job, job);
    }
    EXPECT_TRUE(client.lease("order").idle);
}

// In-process fault injection: drive Coordinator::handle() directly so
// lease expiry, re-leasing and zombie COMPLETEs are exercised without
// real sockets or worker threads — fully deterministic.
TEST(Coordinator, ExpiredLeaseRequeuesAndZombieDuplicateIsDiscarded)
{
    TempPath root("coord_zombie");
    std::filesystem::create_directories(root.path);
    CoordinatorConfig config;
    config.socket_path = root.path + "/coord.sock"; // never served
    config.cache_dir = root.path + "/cache";
    // Short enough for a quick test, long enough that the in-memory
    // submit/lease/renew calls cannot straddle it even under ASan.
    config.lease_ms = 200;
    Coordinator coordinator(config);

    const auto submitted = coordinator.handle(
        makeRequest(proto::Opcode::Submit, submitBody(tiny_manifest)),
        /*client=*/1);
    ASSERT_TRUE(submitted.ok) << submitted.body;
    const std::string job = tokenOf(submitted.body, "job");

    // Worker A takes the lease... and dies (never COMPLETEs).
    const auto leased_a = coordinator.handle(
        makeRequest(proto::Opcode::Lease, "worker=a\n"), 2);
    ASSERT_TRUE(leased_a.ok);
    ASSERT_NE(leased_a.body, "none\n");
    const std::string lease_a = tokenOf(leased_a.body, "lease");
    // The lease carries the expected content keys for verification.
    EXPECT_FALSE(tokenOf(leased_a.body, "keys").empty());

    // RENEW works while the lease lives...
    EXPECT_TRUE(coordinator
                    .handle(makeRequest(proto::Opcode::Renew,
                                        "lease=" + lease_a),
                            2)
                    .ok);

    // ...but past the deadline the unit re-queues and worker B gets it.
    std::this_thread::sleep_for(std::chrono::milliseconds(450));
    const auto leased_b = coordinator.handle(
        makeRequest(proto::Opcode::Lease, "worker=b\n"), 3);
    ASSERT_TRUE(leased_b.ok);
    ASSERT_NE(leased_b.body, "none\n") << "expired unit not re-leased";
    const std::string lease_b = tokenOf(leased_b.body, "lease");
    EXPECT_NE(lease_a, lease_b);
    EXPECT_GE(coordinator.counters().leases_expired, 1u);
    // A zombie's RENEW is refused.
    EXPECT_FALSE(coordinator
                     .handle(makeRequest(proto::Opcode::Renew,
                                         "lease=" + lease_a),
                             2)
                     .ok);

    // Worker B executes the cell and COMPLETEs: stored.
    const auto plan = tinyPlan();
    std::ostringstream payload(std::ios::binary);
    batch::writeMethodResult(
        payload, batch::BatchRunner::runCell(plan.cells()[0]));
    const auto done_b = coordinator.handle(
        makeRequest(proto::Opcode::Complete,
                    "lease=" + lease_b + " status=ok more=0\n" +
                        payload.str()),
        3);
    ASSERT_TRUE(done_b.ok) << done_b.body;
    EXPECT_EQ(tokenOf(done_b.body, "stored"), "1");
    EXPECT_EQ(tokenOf(done_b.body, "discarded"), "0");

    // The zombie's late duplicate: acked (ok reply), discarded, and
    // the stored result untouched (first write wins).
    const auto done_a = coordinator.handle(
        makeRequest(proto::Opcode::Complete,
                    "lease=" + lease_a + " status=ok more=0\n" +
                        payload.str()),
        2);
    ASSERT_TRUE(done_a.ok) << done_a.body;
    EXPECT_EQ(tokenOf(done_a.body, "stored"), "0");
    EXPECT_EQ(tokenOf(done_a.body, "discarded"), "1");

    const auto status = coordinator.handle(
        makeRequest(proto::Opcode::Status, job), 1);
    EXPECT_NE(status.body.find("state=done"), std::string::npos);
    const auto counters = coordinator.counters();
    EXPECT_EQ(counters.results_stored, 1u);
    EXPECT_EQ(counters.results_discarded, 1u);
    EXPECT_EQ(counters.jobs_completed, 1u);

    // And the merged result equals a direct serial run bit-for-bit.
    const auto fetched = coordinator.handle(
        makeRequest(proto::Opcode::Result, plan.cells()[0].key.hex()),
        1);
    ASSERT_TRUE(fetched.ok);
    std::istringstream parse(fetched.body, std::ios::binary);
    EXPECT_EQ(batch::readMethodResult(parse),
              batch::BatchRunner::runCell(plan.cells()[0]));
}

TEST(Coordinator, ZombieErrorCannotFailRescuedCells)
{
    // A zombie that comes back with status=error must not mark cells
    // failed: its lease already expired and a re-lease may (and here
    // does) still succeed.
    TempPath root("coord_zerr");
    std::filesystem::create_directories(root.path);
    CoordinatorConfig config;
    config.socket_path = root.path + "/coord.sock";
    config.cache_dir = root.path + "/cache";
    config.lease_ms = 200;
    Coordinator coordinator(config);

    (void)coordinator.handle(
        makeRequest(proto::Opcode::Submit, submitBody(tiny_manifest)),
        1);
    const auto leased_a = coordinator.handle(
        makeRequest(proto::Opcode::Lease, "worker=a\n"), 2);
    const std::string lease_a = tokenOf(leased_a.body, "lease");
    std::this_thread::sleep_for(std::chrono::milliseconds(450));
    const auto leased_b = coordinator.handle(
        makeRequest(proto::Opcode::Lease, "worker=b\n"), 3);
    ASSERT_NE(leased_b.body, "none\n");

    // Zombie error arrives while B is still working: discarded.
    const auto zerr = coordinator.handle(
        makeRequest(proto::Opcode::Complete,
                    "lease=" + lease_a +
                        " status=error more=0\nworker a exploded"),
        2);
    ASSERT_TRUE(zerr.ok);
    EXPECT_EQ(tokenOf(zerr.body, "stored"), "0");

    // B succeeds; the job must come out clean.
    const auto plan = tinyPlan();
    std::ostringstream payload(std::ios::binary);
    batch::writeMethodResult(
        payload, batch::BatchRunner::runCell(plan.cells()[0]));
    ASSERT_TRUE(coordinator
                    .handle(makeRequest(
                                proto::Opcode::Complete,
                                "lease=" +
                                    tokenOf(leased_b.body, "lease") +
                                    " status=ok more=0\n" +
                                    payload.str()),
                            3)
                    .ok);
    const auto status =
        coordinator.handle(makeRequest(proto::Opcode::Status, ""), 1);
    EXPECT_NE(status.body.find("state=done"), std::string::npos);
    EXPECT_EQ(status.body.find("state=failed"), std::string::npos);
}

TEST(Coordinator, ActiveErrorFailsCellsAndQuotaBackpressures)
{
    TempPath root("coord_quota");
    std::filesystem::create_directories(root.path);
    CoordinatorConfig config;
    config.socket_path = root.path + "/coord.sock";
    config.cache_dir = root.path + "/cache";
    config.submit_quota = 2;
    Coordinator coordinator(config);

    // An *active* lease's status=error fails the cells for real.
    (void)coordinator.handle(
        makeRequest(proto::Opcode::Submit, submitBody(tiny_manifest)),
        1);
    const auto leased = coordinator.handle(
        makeRequest(proto::Opcode::Lease, ""), 2);
    ASSERT_NE(leased.body, "none\n");
    const auto failed = coordinator.handle(
        makeRequest(proto::Opcode::Complete,
                    "lease=" + tokenOf(leased.body, "lease") +
                        " status=error more=0\nsimulator exploded"),
        2);
    ASSERT_TRUE(failed.ok);
    const auto status =
        coordinator.handle(makeRequest(proto::Opcode::Status, ""), 1);
    EXPECT_NE(status.body.find("state=failed"), std::string::npos);
    EXPECT_NE(status.body.find("simulator exploded"),
              std::string::npos);

    // Per-client SUBMIT quota: the first job completed (failed counts
    // as complete), so two more in-flight jobs fit; the third bounces
    // with a quota diagnostic, while another client is unaffected.
    ASSERT_TRUE(coordinator
                    .handle(makeRequest(proto::Opcode::Submit,
                                        submitBody(two_cell_manifest)),
                            1)
                    .ok);
    ASSERT_TRUE(
        coordinator
            .handle(makeRequest(proto::Opcode::Submit,
                                submitBody(fleet_manifest)),
                    1)
            .ok);
    const auto bounced = coordinator.handle(
        makeRequest(proto::Opcode::Submit,
                    submitBody(
                        "workload bzip2\n"
                        "config c llc=16MiB\n"
                        "schedule s spacing=200000 regions=2\n")),
        1);
    EXPECT_FALSE(bounced.ok);
    EXPECT_NE(bounced.body.find("quota"), std::string::npos);
    EXPECT_EQ(coordinator.counters().quota_rejections, 1u);
    EXPECT_TRUE(
        coordinator
            .handle(makeRequest(proto::Opcode::Submit,
                                submitBody(
                                    "workload bzip2\n"
                                    "config c llc=16MiB\n"
                                    "schedule s spacing=200000 "
                                    "regions=2\n")),
                    /*client=*/99)
            .ok);
}

TEST(Coordinator, ReadyBacklogCeilingRejectsWholeSubmit)
{
    TempPath root("coord_backlog");
    std::filesystem::create_directories(root.path);
    CoordinatorConfig config;
    config.socket_path = root.path + "/coord.sock";
    config.cache_dir = root.path + "/cache";
    config.max_ready_units = 2;
    Coordinator coordinator(config);

    // Units are co-scheduled groups, one per distinct schedule here,
    // so three schedules = three units: too many for a 2-unit
    // ceiling. Rejected atomically — no half-registered job, no
    // stranded units, no dangling waiters.
    const auto bounced = coordinator.handle(
        makeRequest(proto::Opcode::Submit,
                    submitBody("workload bzip2\n"
                               "config c llc=2MiB\n"
                               "schedule s1 spacing=200000 regions=2\n"
                               "schedule s2 spacing=300000 regions=2\n"
                               "schedule s3 spacing=400000 regions=2\n"
                               "methods delorean\n")),
        1);
    EXPECT_FALSE(bounced.ok) << bounced.body;
    EXPECT_NE(bounced.body.find("backlog"), std::string::npos);
    const auto counters = coordinator.counters();
    EXPECT_EQ(counters.jobs_submitted, 0u);
    EXPECT_EQ(counters.units_ready, 0u);

    // The two-unit fleet plan exactly fills the ceiling: accepted.
    EXPECT_TRUE(coordinator
                    .handle(makeRequest(proto::Opcode::Submit,
                                        submitBody(fleet_manifest)),
                            1)
                    .ok);
    EXPECT_EQ(coordinator.counters().units_ready, 2u);
}

// ---------------------------------------------- typed status replies

TEST(Queue, JobStatusLineRoundTripsThroughTypedParse)
{
    JobStatus status;
    status.id = 42;
    // A hostile name full of key=value lookalikes: the name is the
    // last token, so none of these may leak into other fields.
    status.name = "state=done cells=9 name=trap .plan";
    status.source = JobSource::Spool;
    status.priority = 7;
    status.cells = 5;
    status.done = 3;
    status.failed = 1;
    status.first_error = "cell 2: simulator exploded";

    const JobStatus parsed = parseJobStatusLine(jobStatusLine(status));
    EXPECT_EQ(parsed.id, 42u);
    EXPECT_EQ(parsed.name, status.name);
    EXPECT_EQ(parsed.source, JobSource::Spool);
    EXPECT_EQ(parsed.priority, 7);
    EXPECT_EQ(parsed.cells, 5u);
    EXPECT_EQ(parsed.done, 3u);
    EXPECT_EQ(parsed.failed, 1u);
    EXPECT_EQ(parsed.first_error, status.first_error);
    EXPECT_STREQ(parsed.state(), "running");
    // Exact round trip: re-rendering the parse reproduces the line.
    EXPECT_EQ(jobStatusLine(parsed), jobStatusLine(status));

    // Malformed lines are errors, never silently-zero statuses.
    const char *bad[] = {
        "",
        // No name token (everything after it would be ambiguous).
        "job=1 state=queued cells=1 done=0",
        // Missing required keys.
        "job=1 cells=1 done=0 name=x\n",
        "job=1 state=queued done=0 name=x\n",
        // Unparseable numbers / unknown enum values.
        "job=zzz state=queued cells=1 done=0 name=x\n",
        "job=1 state=queued cells=1 done=0 source=mars name=x\n",
        // State token contradicting the counters (truncated or
        // reassembled line that still tokenizes).
        "job=1 state=done cells=2 done=1 failed=0 priority=1 "
        "source=socket name=x\n",
        "job=1 state=queued cells=2 done=2 failed=0 priority=1 "
        "source=socket name=x\n",
        // Stray continuation line.
        "job=1 state=done cells=1 done=1 failed=0 priority=1 "
        "source=socket name=x\nnot an error line\n",
    };
    for (const char *text : bad)
        EXPECT_THROW((void)parseJobStatusLine(text), ServiceError)
            << "'" << text << "'";
}

TEST(Service, TypedStatusAndStatsMatchDaemonCounters)
{
    ServiceFixture fixture;
    ServiceClient client(fixture.config.socket_path);
    const auto info = client.submit(tiny_manifest);
    ASSERT_TRUE(client.waitForJob(info.job, 120.0));

    const ServiceStatus status = client.status();
    EXPECT_EQ(status.fleet_stats.leases_granted, 0u); // a daemon
    EXPECT_EQ(status.jobs_submitted, 1u);
    EXPECT_EQ(status.jobs_completed, 1u);
    EXPECT_EQ(status.job_failures, 0u);
    EXPECT_EQ(status.cells_executed, 1u);
    EXPECT_EQ(status.cells_pending, 0u);
    ASSERT_EQ(status.jobs.size(), 1u);
    EXPECT_EQ(status.jobs[0].id, info.job);
    EXPECT_TRUE(status.jobs[0].complete());
    EXPECT_STREQ(status.jobs[0].state(), "done");

    const ServiceStats stats = client.stats();
    EXPECT_EQ(stats.fleet_stats.leases_granted, 0u);
    EXPECT_EQ(stats.last_run_executed, 1u);
    EXPECT_EQ(stats.last_run_cached, 0u);
    EXPECT_EQ(stats.total_executed, 1u);
    EXPECT_EQ(stats.jobs_submitted, 1u);
    EXPECT_EQ(stats.cells_executed, 1u);

    // The human renderings survive for the CLI; the typed accessors
    // parse exactly those texts, so the counters must agree.
    EXPECT_NE(client.statusText().find("jobs=1"), std::string::npos);
    EXPECT_NE(client.statsText().find("total_executed=1"),
              std::string::npos);
}

TEST(Service, RunCountersReachStatsTsvByShutdown)
{
    ServiceFixture fixture;
    const std::string dir = fixture.config.cache_dir;
    // A concurrent batch_run's increments, in the file the daemon
    // flushes into: they must survive its merges.
    batch::ResultCache(dir).recordRun(5, 7);

    ServiceClient client(fixture.config.socket_path);
    const auto first = client.submit(tiny_manifest);
    ASSERT_TRUE(client.waitForJob(first.job, 120.0));
    const auto second = client.submit(tiny_manifest);
    ASSERT_TRUE(client.waitForJob(second.job, 120.0));
    // STATS answers from memory, seeded when the daemon started.
    const ServiceStats stats = client.stats();
    EXPECT_EQ(stats.total_executed, 1u);
    EXPECT_EQ(stats.total_cached, 1u);

    fixture.service->requestShutdown();
    fixture.runner.join();
    const auto file = batch::ResultCache(dir).stats();
    EXPECT_EQ(file.last_run_executed, 0u);
    EXPECT_EQ(file.last_run_cached, 1u);
    EXPECT_EQ(file.total_executed, 5u + 1u);
    EXPECT_EQ(file.total_cached, 7u + 1u);
}

TEST(Service, BothServersAnswerOneStatusAndStatsGrammar)
{
    // The same plan, twice, through a daemon and through a coordinator
    // with one worker: both replies parse into the same structs with
    // the same job and cell counters and the same job lines.
    ServiceFixture daemon;
    CoordinatorFixture fleet(/*lease_ms=*/120000);
    WorkerLoop worker(fleet.workerConfig("w"));
    worker.start();
    std::vector<ServiceStatus> statuses;
    std::vector<ServiceStats> stats;
    for (const std::string &socket :
         {daemon.config.socket_path, fleet.config.socket_path}) {
        ServiceClient client(socket);
        for (int round = 0; round < 2; ++round) {
            const auto info = client.submit(two_cell_manifest);
            ASSERT_TRUE(client.waitForJob(info.job, 120.0));
        }
        statuses.push_back(client.status());
        stats.push_back(client.stats());
    }

    const auto same = [](const ServiceCounters &a,
                         const ServiceCounters &b) {
        EXPECT_EQ(a.jobs_submitted, b.jobs_submitted);
        EXPECT_EQ(a.jobs_completed, b.jobs_completed);
        EXPECT_EQ(a.job_failures, b.job_failures);
        EXPECT_EQ(a.cells_total, b.cells_total);
        EXPECT_EQ(a.cells_executed, b.cells_executed);
        EXPECT_EQ(a.cells_cached, b.cells_cached);
        EXPECT_EQ(a.cells_deduped, b.cells_deduped);
        EXPECT_EQ(a.cells_pending, b.cells_pending);
    };
    same(statuses[0], statuses[1]);
    same(stats[0], stats[1]);
    EXPECT_EQ(statuses[0].jobs_submitted, 2u);
    EXPECT_EQ(statuses[0].cells_executed, 2u);
    EXPECT_EQ(statuses[0].cells_cached, 2u);
    ASSERT_EQ(statuses[0].jobs.size(), statuses[1].jobs.size());
    for (std::size_t i = 0; i < statuses[0].jobs.size(); ++i)
        EXPECT_EQ(jobStatusLine(statuses[0].jobs[i]),
                  jobStatusLine(statuses[1].jobs[i]));
    for (const ServiceStats &s : stats) {
        EXPECT_EQ(s.last_run_executed, 0u);
        EXPECT_EQ(s.last_run_cached, 2u);
        EXPECT_EQ(s.total_executed, 2u);
        EXPECT_EQ(s.total_cached, 2u);
    }
    // Lease counters read 0 on the daemon and count on the fleet,
    // whose idle worker is parked in LEASE.
    EXPECT_EQ(stats[0].fleet_stats.leases_granted, 0u);
    EXPECT_GE(stats[1].fleet_stats.leases_granted, 1u);
    EXPECT_EQ(stats[0].parked, 0u);
    worker.stop();
}

// ------------------------------------------------- stream migration

TEST(Coordinator, StreamMigratesAcrossWorkerKillBitIdentically)
{
    TempPath trace("mig_trace");
    const std::string bytes = recordTraceBytes(trace.path, 400000);
    const std::string plan_text =
        "workload file:" + trace.path + "\n" + stream_directives;
    const auto plan = tinyPlan(plan_text.c_str());
    ASSERT_EQ(plan.cells().size(), 1u);
    const auto golden = batch::BatchRunner::runCell(plan.cells()[0]);

    // Long leases: the victim commits window 1 and is killed while
    // *idle*, so nothing here depends on expiry timing — the handoff
    // sequence is fully deterministic.
    CoordinatorFixture fixture(/*lease_ms=*/120000);
    ServiceClient client(fixture.config.socket_path);
    EXPECT_EQ(client.status().fleet_stats.streams, 0u);

    const std::uint64_t id = client.streamOpen(stream_directives);
    EXPECT_EQ(client.status().fleet_stats.streams, 1u);
    const std::size_t records_at = bytes.size() - 400000ull * 32;
    const std::size_t w1_end = records_at + 200000ull * 32;
    client.streamAppend(id, bytes.substr(0, w1_end));

    WorkerLoop victim(fixture.workerConfig("victim"));
    victim.start();
    ServiceFixture::waitFor(
        [&] {
            return fixture.coordinator->counters().stream_windows >= 1;
        },
        "victim to commit window 1");
    // The half-fed stream now carries a running estimate: STATUS
    // publishes CPI, CI and the miss-ratio curve mid-recording.
    const auto running = client.streamStatus(id);
    EXPECT_EQ(running.windows_fed, 1u);
    EXPECT_EQ(running.windows_total, 2u);
    EXPECT_FALSE(running.complete);
    EXPECT_GT(running.est_cpi, 0.0);
    EXPECT_FALSE(running.mrc.empty());
    victim.kill();

    WorkerLoop survivor(fixture.workerConfig("survivor"));
    survivor.start();
    client.streamAppend(id, bytes.substr(w1_end));
    const auto closed = client.streamClose(id);
    survivor.stop();

    // The migrated stream's CLOSE is bit-identical to the offline
    // run, under the offline content key.
    EXPECT_EQ(closed.windows, 2u);
    EXPECT_EQ(closed.key, plan.cells()[0].key);
    EXPECT_EQ(client.result(closed.key), golden);

    const auto counters = fixture.coordinator->counters();
    EXPECT_EQ(counters.streams_finished, 1u);
    EXPECT_EQ(counters.streams_failed, 0u);
    EXPECT_EQ(counters.stream_windows, 2u);
    EXPECT_GE(counters.stream_leases, 2u);
    // The victim warmed window 1; the survivor resumed from the
    // committed DLRNLVP1 prefix and warmed ONLY window 2 — never
    // from byte zero.
    EXPECT_EQ(victim.counters().windows_warmed, 1u);
    EXPECT_EQ(survivor.counters().windows_warmed, 1u);

    // The fleet STATS surface the stream counters in typed form.
    const ServiceStats stats = client.stats();
    EXPECT_EQ(stats.fleet_stats.streams_finished, 1u);
    EXPECT_EQ(stats.fleet_stats.stream_windows, 2u);
    EXPECT_GE(stats.fleet_stats.stream_handoffs, 2u);
}

TEST(Coordinator, WorkerKilledHoldingStreamLeaseStillFinishes)
{
    TempPath trace("mig_kill_trace");
    const std::string bytes = recordTraceBytes(trace.path, 400000);
    const std::string plan_text =
        "workload file:" + trace.path + "\n" + stream_directives;
    const auto plan = tinyPlan(plan_text.c_str());
    const auto golden = batch::BatchRunner::runCell(plan.cells()[0]);

    // Short leases: the victim is killed while *holding* a stream
    // lease (the kill -9 analogue — its handoff is never sent), the
    // lease expires, and the survivor re-leases the windows.
    CoordinatorFixture fixture(/*lease_ms=*/400);
    ServiceClient client(fixture.config.socket_path);
    const std::uint64_t id = client.streamOpen(stream_directives);
    const std::size_t records_at = bytes.size() - 400000ull * 32;
    client.streamAppend(
        id, bytes.substr(0, records_at + 200000ull * 32));

    WorkerLoop victim(fixture.workerConfig("victim"));
    victim.start();
    ServiceFixture::waitFor(
        [&] {
            return fixture.coordinator->counters().stream_leases >= 1;
        },
        "victim to take the stream lease");
    victim.kill(); // usually mid-warm; either way no double commit

    WorkerLoop survivor(fixture.workerConfig("survivor"));
    survivor.start();
    client.streamAppend(id,
                        bytes.substr(records_at + 200000ull * 32));
    const auto closed = client.streamClose(id);
    survivor.stop();

    EXPECT_EQ(closed.windows, 2u);
    EXPECT_EQ(closed.key, plan.cells()[0].key);
    EXPECT_EQ(client.result(closed.key), golden);
    const auto counters = fixture.coordinator->counters();
    EXPECT_EQ(counters.streams_finished, 1u);
    EXPECT_EQ(counters.streams_failed, 0u);
}

TEST(Coordinator, UnmigratedStreamWarmsEachWindowOnce)
{
    // The no-migration control: one worker, no faults. Exactly two
    // windows exist and exactly two windows are warmed across the
    // fleet — no window is ever warmed twice, so migration (the
    // previous tests) and normal operation share one accounting.
    TempPath trace("solo_trace");
    const std::string bytes = recordTraceBytes(trace.path, 400000);
    const std::string plan_text =
        "workload file:" + trace.path + "\n" + stream_directives;
    const auto plan = tinyPlan(plan_text.c_str());
    const auto golden = batch::BatchRunner::runCell(plan.cells()[0]);

    CoordinatorFixture fixture(/*lease_ms=*/120000);
    ServiceClient client(fixture.config.socket_path);
    const std::uint64_t id = client.streamOpen(stream_directives);

    WorkerLoop solo(fixture.workerConfig("solo"));
    solo.start();
    // Feed window 1, let it commit, then the rest: the suspended
    // stream is resumed by the *same* worker from its own prefix.
    const std::size_t records_at = bytes.size() - 400000ull * 32;
    client.streamAppend(
        id, bytes.substr(0, records_at + 200000ull * 32));
    ServiceFixture::waitFor(
        [&] {
            return fixture.coordinator->counters().stream_windows >= 1;
        },
        "window 1 to commit");
    client.streamAppend(id,
                        bytes.substr(records_at + 200000ull * 32));
    const auto closed = client.streamClose(id);

    EXPECT_EQ(closed.windows, 2u);
    EXPECT_EQ(client.result(closed.key), golden);
    solo.stop();
    EXPECT_EQ(solo.counters().windows_warmed, 2u);
    EXPECT_EQ(solo.counters().stream_leases_failed, 0u);
    const auto counters = fixture.coordinator->counters();
    EXPECT_EQ(counters.stream_windows, 2u);
    EXPECT_EQ(counters.streams_finished, 1u);
    EXPECT_EQ(counters.streams_failed, 0u);
}

TEST(Coordinator, StreamMigrationOpcodeAbuseIsSafe)
{
    TempPath root("coord_mig_abuse");
    std::filesystem::create_directories(root.path);
    CoordinatorConfig config;
    config.socket_path = root.path + "/coord.sock"; // never served
    config.cache_dir = root.path + "/cache";
    Coordinator coordinator(config);
    // The socket server converts thrown ServiceError/BatchError into
    // error replies; mirror that so every abuse case below asserts
    // "error reply, never a crash".
    const auto safeHandle = [&](proto::Opcode op,
                                const std::string &body) {
        try {
            return coordinator.handle(makeRequest(op, body), 1);
        } catch (const std::exception &e) {
            return proto::Reply::error(e.what());
        }
    };

    // No streams and no units: LEASE is idle, whatever the body says.
    for (const char *body : {"", "worker=w\n", "garbage tokens\n"}) {
        const auto reply = safeHandle(proto::Opcode::Lease, body);
        ASSERT_TRUE(reply.ok) << body;
        EXPECT_EQ(reply.body, "none\n") << body;
    }

    // Malformed stream COMPLETE headers are error replies.
    for (const char *body :
         {"", "lease=1\n", "status=ok\n", "lease=1 status=maybe\n",
          "lease=zzz status=ok\n", "lease=1 status=ok windows=x\n",
          "lease=1 status=ok est_cpi=nan?\n"}) {
        EXPECT_FALSE(safeHandle(proto::Opcode::Complete, body).ok)
            << "'" << body << "'";
    }

    // Host a real stream (one cheap window) and lease it.
    constexpr const char *directives =
        "config c llc=2MiB\n"
        "schedule s spacing=41000 regions=1\n";
    TempPath trace("mig_abuse_trace");
    const std::string bytes = recordTraceBytes(trace.path, 41000);
    const auto opened =
        safeHandle(proto::Opcode::StreamOpen, directives);
    ASSERT_TRUE(opened.ok) << opened.body;
    const std::string sid = tokenOf(opened.body, "stream");
    ASSERT_TRUE(
        safeHandle(proto::Opcode::StreamAppend,
                   "stream=" + sid + "\n" + bytes)
            .ok);

    const auto leased = safeHandle(proto::Opcode::Lease, "worker=w\n");
    ASSERT_TRUE(leased.ok);
    ASSERT_NE(leased.body, "none\n");
    EXPECT_EQ(tokenOf(leased.body, "stream"), sid);
    EXPECT_EQ(tokenOf(leased.body, "from"), "0");
    EXPECT_EQ(tokenOf(leased.body, "to"), "1");
    EXPECT_EQ(tokenOf(leased.body, "finish"), "0");
    EXPECT_EQ(tokenOf(leased.body, "prefix"), "-");
    // A leased stream is not leased twice.
    EXPECT_EQ(safeHandle(proto::Opcode::Lease, "").body, "none\n");

    // A prefix handoff must ship a prefix file...
    const std::string lease1 = tokenOf(leased.body, "lease");
    EXPECT_FALSE(safeHandle(proto::Opcode::Complete,
                            "lease=" + lease1 +
                                " status=ok windows=1 prefix=-\n")
                     .ok);
    // ...and the error left the stream leasable again.
    const auto leased2 = safeHandle(proto::Opcode::Lease, "worker=w\n");
    ASSERT_NE(leased2.body, "none\n");
    const std::string lease2 = tokenOf(leased2.body, "lease");

    // A corrupt prefix file is an error reply, the worker file is
    // reclaimed, and the stream is (again) leasable.
    const std::string spool_dir = config.cache_dir + "/fleet-streams/";
    const std::string garbage = spool_dir + sid + ".dlt.lvp." + lease2;
    { std::ofstream(garbage, std::ios::binary) << "not a livepoint"; }
    EXPECT_FALSE(safeHandle(proto::Opcode::Complete,
                            "lease=" + lease2 +
                                " status=ok windows=1 prefix=" +
                                garbage + "\n")
                     .ok);
    EXPECT_FALSE(std::filesystem::exists(garbage));
    const auto leased3 = safeHandle(proto::Opcode::Lease, "worker=w\n");
    ASSERT_NE(leased3.body, "none\n");
    const std::string lease3 = tokenOf(leased3.body, "lease");

    // A prefix= outside the spool directory is not the coordinator's
    // to read, install or remove: the handoff is refused, the file
    // survives, and the stream is leasable again.
    const std::string outside = root.path + "/outside.lvp";
    { std::ofstream(outside, std::ios::binary) << "not a livepoint"; }
    EXPECT_FALSE(safeHandle(proto::Opcode::Complete,
                            "lease=" + lease3 +
                                " status=ok windows=1 prefix=" +
                                spool_dir + "../../outside.lvp\n")
                     .ok);
    EXPECT_TRUE(std::filesystem::exists(outside));
    const auto leased4 = safeHandle(proto::Opcode::Lease, "worker=w\n");
    ASSERT_NE(leased4.body, "none\n");
    const std::string lease4 = tokenOf(leased4.body, "lease");

    // A COMPLETE under a vanished lease id is acked and discarded —
    // the worker did nothing wrong — and its prefix file is dropped,
    // but only one in the spool directory named for that lease: not
    // a file elsewhere, nor the stream's own spool.
    const std::string stale = spool_dir + sid + ".dlt.lvp.999999";
    { std::ofstream(stale, std::ios::binary) << "whatever"; }
    const std::string spool = spool_dir + sid + ".dlt";
    for (const std::string &prefix : {stale, outside, spool}) {
        const auto zombie = safeHandle(proto::Opcode::Complete,
                                       "lease=999999 status=ok windows=3 "
                                       "prefix=" +
                                           prefix + "\n");
        ASSERT_TRUE(zombie.ok) << zombie.body;
        EXPECT_EQ(tokenOf(zombie.body, "discarded"), "1");
    }
    EXPECT_FALSE(std::filesystem::exists(stale));
    EXPECT_TRUE(std::filesystem::exists(outside));
    EXPECT_TRUE(std::filesystem::exists(spool));

    // An *active* lease's error fails the stream for real; the next
    // append surfaces the diagnostic and reclaims it.
    const auto failed = safeHandle(proto::Opcode::Complete,
                                   "lease=" + lease4 +
                                       " status=error\n"
                                       "worker exploded");
    ASSERT_TRUE(failed.ok) << failed.body;
    const auto append = safeHandle(proto::Opcode::StreamAppend,
                                   "stream=" + sid + "\nx");
    EXPECT_FALSE(append.ok);
    EXPECT_NE(append.body.find("worker exploded"), std::string::npos);
    EXPECT_FALSE(safeHandle(proto::Opcode::Status, "stream=" + sid).ok);
    EXPECT_EQ(coordinator.counters().streams_failed, 1u);
    EXPECT_EQ(coordinator.counters().stream_leases, 4u);
}

// ------------------------------------------- parked WAIT and LEASE

/** A Coordinator driven in process through handle(), never served. */
struct LocalCoordinator
{
    TempPath root;
    std::unique_ptr<Coordinator> coordinator;

    explicit LocalCoordinator(const std::string &tag,
                              unsigned lease_ms = 10000)
        : root(tag)
    {
        std::filesystem::create_directories(root.path);
        CoordinatorConfig config;
        config.socket_path = root.path + "/coord.sock";
        config.cache_dir = root.path + "/cache";
        config.lease_ms = lease_ms;
        coordinator = std::make_unique<Coordinator>(config);
    }

    /** handle(), with a thrown error as an error reply — what the
     *  socket server sends. */
    proto::Reply
    call(proto::Opcode op, const std::string &body)
    {
        try {
            return coordinator->handle(makeRequest(op, body), 1);
        } catch (const std::exception &e) {
            return proto::Reply::error(e.what());
        }
    }
};

/**
 * One request on its own thread. The constructor returns once the
 * coordinator counts it as parked (or it already answered), so the
 * test's next request is the event it must wake on — no sleeps.
 */
class Parked
{
  public:
    Parked(LocalCoordinator &local, proto::Opcode op, std::string body)
    {
        const auto before = local.coordinator->counters().parked;
        thread_ = std::thread([this, &local, op, body = std::move(body)] {
            reply_ = local.call(op, body);
            done_.store(true);
        });
        while (!done_.load() &&
               local.coordinator->counters().parked == before)
            std::this_thread::yield();
    }

    ~Parked()
    {
        if (thread_.joinable())
            thread_.join();
    }

    Parked(const Parked &) = delete;
    Parked &operator=(const Parked &) = delete;

    /** Wait for the answer. */
    proto::Reply
    get()
    {
        thread_.join();
        return reply_;
    }

  private:
    proto::Reply reply_;
    std::atomic<bool> done_{false};
    std::thread thread_; //!< last: it uses the members above
};

TEST(Coordinator, ParkedLeaseGetsTheUnitASubmitQueues)
{
    LocalCoordinator local("park_submit");
    Parked lease(local, proto::Opcode::Lease, "worker=a wait_ms=10000\n");
    ASSERT_TRUE(
        local.call(proto::Opcode::Submit, submitBody(tiny_manifest)).ok);
    const auto reply = lease.get();
    ASSERT_TRUE(reply.ok) << reply.body;
    ASSERT_NE(reply.body, "none\n");
    EXPECT_EQ(tokenOf(reply.body, "cells"), "0");
    EXPECT_EQ(local.coordinator->counters().parked, 0u);
}

TEST(Coordinator, ParkedLeaseGetsAnExpiredLeaseUnprompted)
{
    LocalCoordinator local("park_expiry", /*lease_ms=*/50);
    ASSERT_TRUE(
        local.call(proto::Opcode::Submit, submitBody(tiny_manifest)).ok);
    const auto first = local.call(proto::Opcode::Lease, "worker=a\n");
    ASSERT_NE(first.body, "none\n");

    // Worker a dies holding the unit. Nothing else arrives while b is
    // parked: the deadline passing is the only event.
    Parked lease(local, proto::Opcode::Lease, "worker=b wait_ms=10000\n");
    const auto second = lease.get();
    ASSERT_TRUE(second.ok) << second.body;
    ASSERT_NE(second.body, "none\n");
    EXPECT_NE(tokenOf(second.body, "lease"), tokenOf(first.body, "lease"));
    EXPECT_EQ(tokenOf(second.body, "cells"), tokenOf(first.body, "cells"));
    EXPECT_EQ(local.coordinator->counters().leases_expired, 1u);
}

TEST(Coordinator, ParkedLeaseGetsAStreamWindowThatCompletes)
{
    LocalCoordinator local("park_stream");
    TempPath trace("park_stream_trace");
    const std::string bytes = recordTraceBytes(trace.path, 41000);
    const std::string sid = tokenOf(
        local
            .call(proto::Opcode::StreamOpen,
                  "config c llc=2MiB\nschedule s spacing=41000 "
                  "regions=1\n")
            .body,
        "stream");
    // All but the last 32-byte record: no window is complete yet.
    const std::size_t last = bytes.size() - 32;
    ASSERT_TRUE(local
                    .call(proto::Opcode::StreamAppend,
                          "stream=" + sid + "\n" + bytes.substr(0, last))
                    .ok);

    Parked lease(local, proto::Opcode::Lease, "worker=a wait_ms=10000\n");
    ASSERT_TRUE(local
                    .call(proto::Opcode::StreamAppend,
                          "stream=" + sid + "\n" + bytes.substr(last))
                    .ok);
    const auto window = lease.get();
    ASSERT_TRUE(window.ok) << window.body;
    EXPECT_EQ(tokenOf(window.body, "stream"), sid);
    EXPECT_EQ(tokenOf(window.body, "from"), "0");
    EXPECT_EQ(tokenOf(window.body, "to"), "1");
    EXPECT_EQ(local.coordinator->counters().parked, 0u);
}

TEST(Coordinator, LeaseGrantsAReadyUnitBeforeAStreamWindow)
{
    LocalCoordinator local("unit_first");
    TempPath trace("unit_first_trace");
    const std::string sid = tokenOf(
        local
            .call(proto::Opcode::StreamOpen,
                  "config c llc=2MiB\nschedule s spacing=41000 "
                  "regions=1\n")
            .body,
        "stream");
    ASSERT_TRUE(local
                    .call(proto::Opcode::StreamAppend,
                          "stream=" + sid + "\n" +
                              recordTraceBytes(trace.path, 41000))
                    .ok);
    // The stream's window was leasable first; the unit still wins.
    ASSERT_TRUE(
        local.call(proto::Opcode::Submit, submitBody(tiny_manifest)).ok);
    const auto unit = local.call(proto::Opcode::Lease, "worker=a\n");
    ASSERT_TRUE(unit.ok) << unit.body;
    EXPECT_EQ(tokenOf(unit.body, "stream"), "");
    EXPECT_EQ(tokenOf(unit.body, "cells"), "0");
    const auto window = local.call(proto::Opcode::Lease, "worker=a\n");
    ASSERT_TRUE(window.ok) << window.body;
    EXPECT_EQ(tokenOf(window.body, "stream"), sid);
    EXPECT_EQ(tokenOf(window.body, "to"), "1");
    EXPECT_EQ(local.call(proto::Opcode::Lease, "").body, "none\n");
}

TEST(Coordinator, ConcurrentActiveAndZombieCompletesStoreOnce)
{
    const auto plan = tinyPlan();
    const auto golden = batch::BatchRunner::runCell(plan.cells()[0]);
    std::ostringstream payload(std::ios::binary);
    batch::writeMethodResult(payload, golden);

    LocalCoordinator local("complete_race");
    const std::string job = tokenOf(
        local.call(proto::Opcode::Submit, submitBody(tiny_manifest)).body,
        "job");
    const auto zombie = local.call(proto::Opcode::Lease, "worker=a\n");
    ASSERT_NE(zombie.body, "none\n");
    // Expire a's lease at once, as the server does when a grant never
    // reaches its worker; b leases the re-queued unit, and a comes
    // back as a zombie that COMPLETEs anyway.
    ASSERT_TRUE(zombie.undelivered);
    zombie.undelivered();
    const auto active = local.call(proto::Opcode::Lease, "worker=b\n");
    ASSERT_NE(active.body, "none\n");
    EXPECT_EQ(local.coordinator->counters().leases_expired, 1u);

    // Both COMPLETEs race through handle(): one claims the key and
    // stores it, the other is acked and discarded.
    proto::Reply replies[2];
    std::thread threads[2];
    const std::string leases[2] = {tokenOf(zombie.body, "lease"),
                                   tokenOf(active.body, "lease")};
    for (int i = 0; i < 2; ++i)
        threads[i] = std::thread([&, i] {
            replies[i] = local.call(proto::Opcode::Complete,
                                    "lease=" + leases[i] +
                                        " status=ok more=0\n" +
                                        payload.str());
        });
    for (auto &thread : threads)
        thread.join();
    std::uint64_t stored = 0, discarded = 0;
    for (const auto &reply : replies) {
        ASSERT_TRUE(reply.ok) << reply.body;
        stored += batch::parseCount(tokenOf(reply.body, "stored"));
        discarded += batch::parseCount(tokenOf(reply.body, "discarded"));
    }
    EXPECT_EQ(stored, 1u);
    EXPECT_EQ(discarded, 1u);

    const auto counters = local.coordinator->counters();
    EXPECT_EQ(counters.jobs_completed, 1u);
    EXPECT_EQ(counters.results_stored, 1u);
    EXPECT_EQ(counters.cells_pending, 0u);
    EXPECT_STREQ(
        parseJobStatusLine(local.call(proto::Opcode::Status, job).body)
            .state(),
        "done");
    std::istringstream fetched(
        local.call(proto::Opcode::Result, plan.cells()[0].key.hex()).body,
        std::ios::binary);
    EXPECT_EQ(batch::readMethodResult(fetched), golden);

    // The same race with an error from the active lease: it must not
    // fail a key the zombie has claimed and is storing. Whichever
    // COMPLETE is first, the job's state agrees with what was stored.
    // The error starts a little later each round, so the rounds sweep
    // it across the zombie's claim, store and resolve.
    for (int round = 0; round < 40; ++round) {
        LocalCoordinator race("complete_error_race");
        const std::string id = tokenOf(
            race.call(proto::Opcode::Submit, submitBody(tiny_manifest))
                .body,
            "job");
        const auto late = race.call(proto::Opcode::Lease, "worker=a\n");
        ASSERT_TRUE(late.undelivered);
        late.undelivered();
        const auto live = race.call(proto::Opcode::Lease, "worker=b\n");
        ASSERT_NE(live.body, "none\n");
        std::atomic<bool> go{false};
        proto::Reply zombie_done;
        std::thread zombie_thread([&] {
            while (!go.load())
                std::this_thread::yield();
            zombie_done = race.call(proto::Opcode::Complete,
                                    "lease=" + tokenOf(late.body, "lease") +
                                        " status=ok more=0\n" +
                                        payload.str());
        });
        go.store(true);
        const auto start = std::chrono::steady_clock::now();
        while (std::chrono::steady_clock::now() - start <
               std::chrono::microseconds(5 * round))
            std::this_thread::yield();
        const auto error_done =
            race.call(proto::Opcode::Complete,
                      "lease=" + tokenOf(live.body, "lease") +
                          " status=error\nworker exploded");
        zombie_thread.join();
        ASSERT_TRUE(zombie_done.ok) << zombie_done.body;
        ASSERT_TRUE(error_done.ok) << error_done.body;
        const bool stored = tokenOf(zombie_done.body, "stored") == "1";
        EXPECT_EQ(race.coordinator->cache().contains(plan.cells()[0].key),
                  stored);
        EXPECT_STREQ(
            parseJobStatusLine(race.call(proto::Opcode::Status, id).body)
                .state(),
            stored ? "done" : "failed")
            << "round " << round;
        EXPECT_EQ(race.coordinator->counters().cells_pending, 0u);
    }
}

TEST(Coordinator, FailedStoreFailsTheCellsItClaimed)
{
    const auto plan = tinyPlan();
    std::ostringstream payload(std::ios::binary);
    batch::writeMethodResult(
        payload, batch::BatchRunner::runCell(plan.cells()[0]));

    LocalCoordinator local("store_fail");
    // A non-empty directory where the key's cache entry goes: the
    // store's rename onto it fails, even as root.
    std::filesystem::create_directories(local.root.path + "/cache/" +
                                        plan.cells()[0].key.hex() +
                                        ".res/occupied");
    const std::string job = tokenOf(
        local.call(proto::Opcode::Submit, submitBody(tiny_manifest)).body,
        "job");
    const auto leased = local.call(proto::Opcode::Lease, "worker=a\n");
    ASSERT_NE(leased.body, "none\n");
    const auto done = local.call(proto::Opcode::Complete,
                                 "lease=" + tokenOf(leased.body, "lease") +
                                     " status=ok more=0\n" +
                                     payload.str());
    ASSERT_TRUE(done.ok) << done.body;
    EXPECT_EQ(tokenOf(done.body, "stored"), "0");

    const JobStatus status =
        parseJobStatusLine(local.call(proto::Opcode::Status, job).body);
    EXPECT_STREQ(status.state(), "failed");
    EXPECT_NE(status.first_error.find("cannot publish cache entry"),
              std::string::npos)
        << status.first_error;
    EXPECT_EQ(local.coordinator->counters().cells_pending, 0u);
    EXPECT_EQ(local.call(proto::Opcode::Lease, "").body, "none\n");
}

TEST(Coordinator, WaitAnswersTheTerminalLineOrTheLineAtTimeout)
{
    LocalCoordinator local("park_wait");
    const std::string job = tokenOf(
        local.call(proto::Opcode::Submit, submitBody(tiny_manifest)).body,
        "job");

    // At timeout: the job's line as STATUS would give it, not terminal.
    const auto early =
        local.call(proto::Opcode::Wait, "job=" + job + " timeout_ms=1");
    ASSERT_TRUE(early.ok) << early.body;
    EXPECT_STREQ(parseJobStatusLine(early.body).state(), "queued");
    EXPECT_EQ(early.body, local.call(proto::Opcode::Status, job).body);

    Parked wait(local, proto::Opcode::Wait,
                "job=" + job + " timeout_ms=10000");
    const auto leased = local.call(proto::Opcode::Lease, "worker=a\n");
    std::ostringstream payload(std::ios::binary);
    batch::writeMethodResult(
        payload, batch::BatchRunner::runCell(tinyPlan().cells()[0]));
    ASSERT_TRUE(local
                    .call(proto::Opcode::Complete,
                          "lease=" + tokenOf(leased.body, "lease") +
                              " status=ok more=0\n" + payload.str())
                    .ok);
    const auto done = wait.get();
    ASSERT_TRUE(done.ok) << done.body;
    EXPECT_STREQ(parseJobStatusLine(done.body).state(), "done");
    EXPECT_EQ(local.coordinator->counters().parked, 0u);
}

TEST(Coordinator, ShutdownReleasesEveryParkedRequest)
{
    LocalCoordinator local("park_shutdown");
    const std::string job = tokenOf(
        local.call(proto::Opcode::Submit, submitBody(tiny_manifest)).body,
        "job");
    // The unit goes out on lease, so a parked LEASE has nothing to take.
    ASSERT_NE(local.call(proto::Opcode::Lease, "").body, "none\n");
    TempPath trace("park_shutdown_trace");
    const std::string sid = tokenOf(
        local
            .call(proto::Opcode::StreamOpen,
                  "config c llc=2MiB\nschedule s spacing=41000 "
                  "regions=1\n")
            .body,
        "stream");
    ASSERT_TRUE(local
                    .call(proto::Opcode::StreamAppend,
                          "stream=" + sid + "\n" +
                              recordTraceBytes(trace.path, 41000))
                    .ok);
    // The window goes out on lease too, so CLOSE parks for its finish.
    ASSERT_NE(local.call(proto::Opcode::Lease, "").body, "none\n");

    Parked wait(local, proto::Opcode::Wait,
                "job=" + job + " timeout_ms=10000");
    Parked lease(local, proto::Opcode::Lease, "wait_ms=10000\n");
    Parked close(local, proto::Opcode::StreamClose, "stream=" + sid);
    EXPECT_EQ(local.coordinator->counters().parked, 3u);

    local.coordinator->requestShutdown();
    const auto waited = wait.get();
    ASSERT_TRUE(waited.ok) << waited.body;
    EXPECT_FALSE(parseJobStatusLine(waited.body).complete());
    EXPECT_EQ(lease.get().body, "none\n");
    const auto closed = close.get();
    EXPECT_FALSE(closed.ok);
    EXPECT_NE(closed.body.find("shutting down"), std::string::npos)
        << closed.body;
    EXPECT_EQ(local.coordinator->counters().parked, 0u);
}

TEST(Service, ShutdownReleasesAParkedWait)
{
    ServiceFixture fixture;
    ServiceClient client(fixture.config.socket_path);
    // Slow enough to still be running when the WAIT parks.
    const auto info = client.submit("workload bzip2\n"
                                    "config c llc=2MiB\n"
                                    "schedule s spacing=500000 regions=6\n"
                                    "methods delorean\n");
    std::optional<JobStatus> status;
    std::thread waiter([&] {
        ServiceClient parked(fixture.config.socket_path);
        try {
            status = parked.waitJob(info.job, proto::max_wait_ms);
        } catch (const ServiceError &) {
            // The server's stop cut the connection: released as well.
        }
    });
    while (fixture.service->counters().parked == 0 &&
           fixture.service->counters().jobs_completed == 0)
        std::this_thread::yield();

    fixture.service->requestShutdown();
    waiter.join();
    if (status) {
        EXPECT_FALSE(status->complete()) << jobStatusLine(*status);
    }
    EXPECT_EQ(fixture.service->counters().parked, 0u);
}

TEST(Coordinator, StopAndKillInterruptAParkedWorker)
{
    CoordinatorFixture fixture;
    for (const bool kill : {false, true}) {
        WorkerLoop worker(
            fixture.workerConfig(kill ? "killed" : "stopped"));
        const auto before = fixture.coordinator->counters().parked;
        worker.start();
        ServiceFixture::waitFor(
            [&] { return fixture.coordinator->counters().parked > before; },
            "the worker's LEASE to park");
        const auto start = std::chrono::steady_clock::now();
        if (kill)
            worker.kill();
        else
            worker.stop();
        // Far inside the parked LEASE's own wait.
        EXPECT_LT(std::chrono::steady_clock::now() - start,
                  std::chrono::milliseconds(proto::max_wait_ms / 2));
    }
}

TEST(Service, WaitAndLeaseWaitAbuseIsSafe)
{
    ServiceFixture service;
    CoordinatorFixture fleet;
    for (const std::string &socket :
         {service.config.socket_path, fleet.config.socket_path}) {
        const bool is_fleet = socket == fleet.config.socket_path;
        ServiceClient client(socket);
        const auto job = client.submit(tiny_manifest).job;
        if (is_fleet) {
            // No workers here: fail the unit to make the job terminal.
            const auto lease = client.lease("w");
            ASSERT_FALSE(lease.idle);
            (void)client.completeError(lease.lease, "abandoned");
        }
        ASSERT_TRUE(client.waitForJob(job, 120.0));

        const int fd = connectToServer(socket);
        const auto exchange = [&](proto::Opcode op,
                                  const std::string &body) {
            proto::writeRequest(fd, makeRequest(op, body));
            return proto::readReply(fd);
        };
        const std::string id = std::to_string(job);
        // Junk, negative, overflowing or missing fields: error replies
        // on a connection that stays healthy, nothing left parked.
        for (const std::string &body :
             {"job=" + id + " timeout_ms=abc",
              "job=" + id + " timeout_ms=-5",
              "job=" + id + " timeout_ms=99999999999999999999999",
              "job=" + id, std::string("timeout_ms=5"), std::string(""),
              std::string("job=abc timeout_ms=5")}) {
            EXPECT_FALSE(exchange(proto::Opcode::Wait, body).ok)
                << "'" << body << "'";
            EXPECT_TRUE(exchange(proto::Opcode::Stats, "").ok);
            EXPECT_EQ(client.stats().parked, 0u);
        }
        // An unknown job errors exactly as STATUS does.
        const auto unknown =
            exchange(proto::Opcode::Wait, "job=999 timeout_ms=5");
        EXPECT_FALSE(unknown.ok);
        EXPECT_EQ(unknown.body,
                  exchange(proto::Opcode::Status, "999").body);
        // A huge timeout is clamped, not refused.
        const auto huge = exchange(
            proto::Opcode::Wait,
            "job=" + id + " timeout_ms=18446744073709551615");
        ASSERT_TRUE(huge.ok) << huge.body;
        EXPECT_TRUE(parseJobStatusLine(huge.body).complete());

        if (!is_fleet) {
            // A batch service has no leases, parked or not.
            for (const char *body :
                 {"", "wait_ms=5\n", "worker=w wait_ms=10000\n"})
                EXPECT_FALSE(exchange(proto::Opcode::Lease, body).ok)
                    << body;
        } else {
            for (const char *body :
                 {"wait_ms=abc\n", "wait_ms=-1\n",
                  "worker=w wait_ms=99999999999999999999999\n"})
                EXPECT_FALSE(exchange(proto::Opcode::Lease, body).ok)
                    << body;
            // Clamped, not refused: a ready unit is leased at once.
            (void)client.submit(two_cell_manifest);
            const auto leased = exchange(
                proto::Opcode::Lease, "wait_ms=18446744073709551615\n");
            ASSERT_TRUE(leased.ok) << leased.body;
            EXPECT_NE(leased.body, "none\n");
        }
        EXPECT_TRUE(exchange(proto::Opcode::Stats, "").ok);
        EXPECT_EQ(client.stats().parked, 0u);
        ::close(fd);
    }
}

// ------------------------------------------------ torn stream prefixes

/** Two cheap windows per stream for the torn-prefix cases. */
constexpr const char *small_stream_directives =
    "config c llc=2MiB\n"
    "schedule s spacing=41000 regions=2\n"
    "methods delorean\n";

TEST(Coordinator, TornPrefixHandoffsAreRejectedAndTheStreamStaysLeasable)
{
    TempPath trace("torn_handoff_trace");
    const std::string bytes = recordTraceBytes(trace.path, 82000);
    const auto plan = tinyPlan(("workload file:" + trace.path + "\n" +
                                small_stream_directives)
                                   .c_str());
    const auto golden = batch::BatchRunner::runCell(plan.cells()[0]);

    LocalCoordinator local("torn_handoff");
    const std::string sid = tokenOf(
        local.call(proto::Opcode::StreamOpen, small_stream_directives).body,
        "stream");
    ASSERT_TRUE(
        local
            .call(proto::Opcode::StreamAppend,
                  "stream=" + sid + "\n" + bytes)
            .ok);

    // Warm both windows in process, as a worker would, for a real
    // 2-window DLRNLVP1 prefix of this stream.
    auto lease = local.call(proto::Opcode::Lease, "worker=w\n");
    ASSERT_EQ(tokenOf(lease.body, "to"), "2");
    const std::string spool = tokenOf(lease.body, "trace");
    core::DeloreanSession session(
        streamConfig(batch::parseCount(sid), small_stream_directives));
    workload::FileTrace master(
        spool, false, batch::parseCount(tokenOf(lease.body, "records")));
    session.feedWindows(master, 2);
    std::ostringstream os(std::ios::binary);
    checkpoint::writeLivePoints(
        os, checkpoint::sessionLivePoints(session, "stream:" + sid));
    const std::string prefix = os.str();

    const auto handoff = [&](std::size_t size) {
        const std::string path =
            spool + ".lvp." + tokenOf(lease.body, "lease");
        writeFile(path, prefix.substr(0, size));
        const auto reply = local.call(
            proto::Opcode::Complete,
            "lease=" + tokenOf(lease.body, "lease") +
                " status=ok windows=2 prefix=" + path + "\n");
        EXPECT_FALSE(std::filesystem::exists(path) && !reply.ok)
            << "rejected prefix file leaked (cut " << size << ")";
        return reply;
    };
    FuzzRng rng{0x746f726eull};
    std::vector<std::size_t> cuts = {0, 1, prefix.size() - 1};
    while (cuts.size() < 19)
        cuts.push_back(std::size_t(rng.next() % prefix.size()));
    for (const std::size_t cut : cuts) {
        EXPECT_FALSE(handoff(cut).ok) << "cut " << cut;
        EXPECT_EQ(tokenOf(local.call(proto::Opcode::Status, "stream=" + sid)
                              .body,
                          "windows_fed"),
                  "0")
            << "cut " << cut;
        lease = local.call(proto::Opcode::Lease, "worker=w\n");
        ASSERT_NE(lease.body, "none\n") << "not leasable after cut " << cut;
        EXPECT_EQ(tokenOf(lease.body, "from"), "0");
    }

    // The whole prefix commits; CLOSE then parks for the finish.
    const auto committed = handoff(prefix.size());
    ASSERT_TRUE(committed.ok) << committed.body;
    EXPECT_EQ(tokenOf(committed.body, "committed"), "2");
    Parked close(local, proto::Opcode::StreamClose, "stream=" + sid);
    const auto finish =
        local.call(proto::Opcode::Lease, "worker=w\n");
    ASSERT_EQ(tokenOf(finish.body, "finish"), "1") << finish.body;
    std::ostringstream result(std::ios::binary);
    batch::writeMethodResult(result, session.finish());
    ASSERT_TRUE(local
                    .call(proto::Opcode::Complete,
                          "lease=" + tokenOf(finish.body, "lease") +
                              " status=ok windows=2 prefix=-\n" +
                              result.str())
                    .ok);
    const auto closed = close.get();
    ASSERT_TRUE(closed.ok) << closed.body;
    EXPECT_EQ(tokenOf(closed.body, "key"), plan.cells()[0].key.hex());
    std::istringstream fetched(
        local.call(proto::Opcode::Result, tokenOf(closed.body, "key")).body,
        std::ios::binary);
    EXPECT_EQ(batch::readMethodResult(fetched), golden);
}

TEST(Coordinator, TornCommittedPrefixIsRewarmedNotFatal)
{
    TempPath trace("torn_commit_trace");
    const std::string bytes = recordTraceBytes(trace.path, 82000);
    const auto plan = tinyPlan(("workload file:" + trace.path + "\n" +
                                small_stream_directives)
                                   .c_str());
    const auto golden = batch::BatchRunner::runCell(plan.cells()[0]);

    CoordinatorFixture fixture(/*lease_ms=*/120000);
    ServiceClient client(fixture.config.socket_path);
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 5; ++i) {
        ids.push_back(client.streamOpen(small_stream_directives));
        client.streamAppend(ids.back(), bytes);
    }

    // A real worker commits a 2-window prefix of every stream...
    {
        WorkerLoop first(fixture.workerConfig("first"));
        first.start();
        ServiceFixture::waitFor(
            [&] {
                return fixture.coordinator->counters().stream_windows >= 10;
            },
            "every stream's 2-window prefix to commit");
        first.stop();
    }
    // ...and each committed file is torn on disk: at 0, 1, the end of
    // the DLRNLVP1 header (68 bytes + the "stream:<id>" workload name,
    // docs/checkpoints.md), mid-window and size - 1.
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const std::string path = fixture.config.cache_dir +
                                 "/fleet-streams/" +
                                 std::to_string(ids[i]) + ".dlt.lvp";
        const std::uintmax_t size = std::filesystem::file_size(path);
        const std::uintmax_t cuts[] = {
            0, 1, 68 + ("stream:" + std::to_string(ids[i])).size(),
            size / 2, size - 1};
        std::filesystem::resize_file(path, cuts[i]);
    }

    // The next worker's finish lease re-warms from the spool instead
    // of failing the stream.
    WorkerLoop second(fixture.workerConfig("second"));
    second.start();
    for (const std::uint64_t id : ids) {
        const auto closed = client.streamClose(id);
        EXPECT_EQ(closed.windows, 2u);
        EXPECT_EQ(closed.key, plan.cells()[0].key);
        EXPECT_EQ(client.result(closed.key), golden) << "stream " << id;
    }
    second.stop();
    EXPECT_EQ(second.counters().windows_warmed, 10u);
    EXPECT_EQ(second.counters().stream_leases_failed, 0u);
    const auto counters = fixture.coordinator->counters();
    EXPECT_EQ(counters.streams_finished, 5u);
    EXPECT_EQ(counters.streams_failed, 0u);
}

TEST(Stream, TailFollowsGrowingTraceFile)
{
    TempPath trace("tail_trace");
    const std::string bytes = recordTraceBytes(trace.path, 400000);
    const std::string plan_text =
        "workload file:" + trace.path + "\n" + stream_directives;
    const auto plan = tinyPlan(plan_text.c_str());
    const auto golden = batch::BatchRunner::runCell(plan.cells()[0]);
    const std::size_t records_at = bytes.size() - 400000ull * 32;
    const std::size_t w1_end = records_at + 200000ull * 32;

    // The client follows the file, so a daemon and a coordinator
    // serve the same follower.
    const auto follow = [&](const std::string &socket) {
        // Re-grow the file from scratch while the client follows it.
        // The cut points are unaligned (mid-header, mid-record) on
        // purpose: the stability gate must still never send a
        // half-written tail.
        std::filesystem::remove(trace.path);
        const auto append = [&](std::size_t from, std::size_t to) {
            std::ofstream out(trace.path,
                              std::ios::binary | std::ios::app);
            out.write(bytes.data() + from, std::streamoff(to - from));
        };
        ServiceClient client(socket);
        const std::uint64_t id = client.streamOpen(stream_directives);
        // The follower starts BEFORE the recorder's first write: a
        // file that does not exist yet is "not started", not
        // "vanished".
        std::optional<ServiceClient::StreamStatus> last;
        std::thread follower([&] {
            ServiceClient tail(socket);
            last = tail.streamFollow(id, trace.path, /*poll_ms=*/25);
        });
        append(0, 13);
        append(13, records_at + 17);
        append(records_at + 17, w1_end + 5);
        ServiceFixture::waitFor(
            [&] { return client.streamStatus(id).windows_fed >= 1; },
            "the follower to feed window 1");
        append(w1_end + 5, bytes.size());
        // The follower notices the file stopped growing, sends the
        // rest, and returns once STATUS says complete=1.
        follower.join();
        ASSERT_TRUE(last.has_value());
        EXPECT_TRUE(last->complete);
        const auto closed = client.streamClose(id);
        EXPECT_EQ(closed.windows, 2u);
        EXPECT_EQ(closed.key, plan.cells()[0].key);
        EXPECT_EQ(client.result(closed.key), golden);
    };

    {
        ServiceFixture daemon;
        follow(daemon.config.socket_path);
    }
    CoordinatorFixture fleet;
    WorkerLoop a(fleet.workerConfig("a")), b(fleet.workerConfig("b"));
    a.start();
    b.start();
    follow(fleet.config.socket_path);
    a.stop();
    b.stop();
    EXPECT_EQ(fleet.coordinator->counters().streams_finished, 1u);
}

TEST(Stream, FollowerStopsWhenTheTraceVanishes)
{
    TempPath trace("vanish_trace");
    const std::string bytes = recordTraceBytes(trace.path, 400000);
    writeFile(trace.path, bytes.substr(0, bytes.size() / 2));
    ServiceFixture fixture;
    ServiceClient client(fixture.config.socket_path);
    const std::uint64_t id = client.streamOpen(stream_directives);
    std::string error;
    std::thread follower([&] {
        ServiceClient tail(fixture.config.socket_path);
        try {
            (void)tail.streamFollow(id, trace.path, /*poll_ms=*/25);
        } catch (const ServiceError &e) {
            error = e.what();
        }
    });
    // Seen (its bytes arrive), then gone: the follower gives up, and
    // the stream stays open like any pushed stream whose client quit.
    ServiceFixture::waitFor(
        [&] { return client.streamStatus(id).records > 0; },
        "the follower to send the file");
    std::filesystem::remove(trace.path);
    follower.join();
    EXPECT_NE(error.find("vanished"), std::string::npos) << error;
    const auto status = client.streamStatus(id);
    EXPECT_GT(status.records, 0u);
    EXPECT_FALSE(status.complete);
}

} // namespace
