/**
 * @file
 * BatchService: the long-running batch daemon.
 *
 * PR 3's `batch_run` is one-shot: parse a plan, run its cells, exit —
 * fine for a laptop sweep, wasteful at fleet scale where thousands of
 * (workload, config, method) cells arrive continuously and most of
 * them are already cached. The service keeps the machinery resident
 * and accepts work from two directions:
 *
 *  - a spool directory watched by ManifestWatcher (drop a `.plan`
 *    file, collect it from `done/`), for bulk producers;
 *  - a Unix-domain socket speaking DLRNSRV1 (service/protocol.hh),
 *    for interactive clients (`tools/batch_service`).
 *
 * Both go through the job table's one SUBMIT path (service/queue.hh):
 * cache hits resolve inside SUBMIT, a cell already pending attaches
 * to it, and only fresh cells reach the daemon's own executor — a
 * priority heap of single cells drained by a core::ThreadPool, each
 * drain loop running pop → simulate → store → resolve. Every batch
 * guarantee carries over unchanged, because the service reuses the
 * same BatchRunner::runCell, the same content keys and the same
 * result serialization: a RESULT fetch returns bytes that parse into
 * a MethodResult equal (operator==, doubles bitwise) to a local run,
 * with the producing run's measured phase timings riding along.
 *
 * Shutdown (SHUTDOWN request or requestShutdown()) is graceful:
 * release parked WAITs, stop accepting, stop scanning, abandon queued
 * but unstarted cells (their manifests stay in the spool for the next
 * serve), finish in-flight cells and store their results, and write
 * the last run counters to stats.tsv before run() returns.
 */

#ifndef DELOREAN_SERVICE_SERVICE_HH
#define DELOREAN_SERVICE_SERVICE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "batch/result_cache.hh"
#include "batch/runner.hh"
#include "service/protocol.hh"
#include "service/queue.hh"
#include "service/stream.hh"
#include "service/watcher.hh"

namespace delorean::service
{

struct ServiceConfig
{
    std::string socket_path;    //!< required
    std::string spool_dir;      //!< empty = no manifest watcher
    std::string cache_dir;      //!< empty = ResultCache::defaultDir()
    unsigned threads = 1;       //!< worker count (0 = hardware)
    unsigned poll_ms = 200;     //!< spool scan period
    bool verbose = false;       //!< per-event progress on stderr

    /**
     * Windows fanned out per TRACE-STREAM feed (0 = hardware).
     * Results are bit-identical for every value (core/parallel.hh),
     * so this is purely a latency knob for appends that complete
     * several windows at once.
     */
    unsigned stream_threads = 1;

    /**
     * Poll period for server-side tailing of a growing trace file
     * (STREAM-OPEN with a "tail=<path>" first line). Each poll
     * ingests only bytes that already existed at the *previous* poll
     * — the same stability gate the manifest watcher applies — so a
     * recorder's half-written tail is never fed.
     */
    unsigned tail_poll_ms = 200;
};

/**
 * Spool pickups enqueue below protocol::default_submit_priority so
 * interactive submits overtake bulk work.
 */
constexpr int spool_priority = 0;

class BatchService
{
  public:
    /**
     * Validate the config and open the cache. Throws ServiceError /
     * BatchError on an empty socket path or unusable directories.
     */
    explicit BatchService(ServiceConfig config);

    /**
     * Serve until shutdown: start workers, watcher and server, block,
     * then drain. Callable once per instance.
     */
    void run();

    /** Trigger the same graceful shutdown a SHUTDOWN request does. */
    void requestShutdown();

    /** The STATUS/STATS job and cell counters (testing). */
    ServiceCounters counters() const;

    /** Cells this process simulated (stream closes included) / served
     *  from cache at SUBMIT (lifetime). */
    std::uint64_t cellsExecuted() const { return counters().cells_executed; }
    std::uint64_t cellsFromCache() const { return counters().cells_cached; }

    const batch::ResultCache &cache() const { return cache_; }

  private:
    /**
     * Dispatch one request. Called concurrently from the server's
     * connection threads; everything it touches (job table, heap,
     * cache, streams) is thread-safe by construction.
     */
    protocol::Reply handle(const protocol::Request &request);

    protocol::Reply handleSubmit(const std::string &body);

    /** The SUBMIT path of socket and spool jobs alike: register the
     *  probed @p plan and push its fresh cells onto the heap. */
    std::uint64_t addJob(const batch::BatchPlan &plan,
                         const JobQueue::Probe &probe,
                         const JobOrigin &origin);

    protocol::Reply handleStreamOpen(const std::string &body);
    protocol::Reply handleStreamAppend(const std::string &body);
    protocol::Reply handleStreamClose(const std::string &body);
    protocol::Reply handleStreamStatus(const std::string &body);

    /**
     * One open TRACE-STREAM. The per-stream mutex serializes its
     * (stateful) appends; streams_mutex_ only guards the map, so a
     * long window feed on one stream never blocks another stream's
     * appends or any other request.
     */
    struct StreamEntry
    {
        std::mutex mutex;
        TraceStream stream;

        StreamEntry(std::uint64_t id, std::string spool_path,
                    const std::string &directives, unsigned threads)
            : stream(id, std::move(spool_path), directives, threads)
        {}
    };

    /** @return the entry for @p id or throw ServiceError. */
    std::shared_ptr<StreamEntry> findStream(std::uint64_t id);

    /** Drop @p id (poisoned or closed); its spool file goes with it. */
    void eraseStream(std::uint64_t id);

    /** The shared append path (socket appends and the tail
     *  follower): feed @p bytes to stream @p id, discarding the
     *  stream on a poisoning error. Throws ServiceError. */
    TraceStream::AppendInfo appendToStream(std::uint64_t id,
                                           const std::string &bytes);

    /** Follow the growing trace at @p path into stream @p id until
     *  every declared byte is fed, the stream dies, or shutdown. */
    void tailLoop(std::uint64_t id, const std::string &path);

    /** Worker-thread body: pop/execute/resolve until the heap
     *  closes. */
    void drainLoop();

    /** Act on jobs that just finished (spool moves), then settle
     *  them so parked WAITs answer. */
    void finishJobs(const std::vector<FinishedJob> &finished);

    /** One fresh cell awaiting a drain loop. */
    struct Task
    {
        batch::BatchCell cell;
        /** The owning job's guard, shared by its tasks. */
        std::shared_ptr<batch::RerecordGuard> rerecorded;
        int priority = 0;
        std::uint64_t seq = 0; //!< FIFO tiebreak within a priority
    };

    ServiceConfig config_;
    batch::ResultCache cache_;
    JobQueue jobs_;
    std::unique_ptr<ManifestWatcher> watcher_; //!< null without spool

    /** Fresh cells, highest priority then oldest first (guarded by
     *  heap_mutex_; closed at shutdown, abandoning what is left). */
    std::mutex heap_mutex_;
    std::condition_variable heap_cv_;
    std::vector<Task> heap_;
    std::uint64_t next_seq_ = 0;
    bool heap_closed_ = false;

    /** Streams closed into the cache: executed cells too (the
     *  daemon's share of the counter line). */
    std::atomic<std::uint64_t> streams_closed_{0};

    std::mutex shutdown_mutex_;
    std::condition_variable shutdown_cv_;
    bool shutdown_ = false;

    /** Open trace streams by id (guarded by streams_mutex_). */
    std::mutex streams_mutex_;
    std::uint64_t next_stream_ = 0;
    std::map<std::uint64_t, std::shared_ptr<StreamEntry>> streams_;

    /** Tail-follower threads (guarded by tailers_mutex_; joined at
     *  shutdown). */
    std::mutex tailers_mutex_;
    std::vector<std::thread> tailers_;
};

} // namespace delorean::service

#endif // DELOREAN_SERVICE_SERVICE_HH
