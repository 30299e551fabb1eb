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
 * priority heap of single cells drained by `threads` drain loops, each
 * running pop → simulate → store → resolve. The drain loops are the
 * daemon's whole thread budget: a loop that finds the heap empty lends
 * itself to the windows of a cell another loop is running, or of a
 * stream feed (core::Executor), one window at a time, and goes back to
 * the heap as soon as a cell is queued. A lone miss thus runs its
 * windows side by side, while at no moment do more than `threads`
 * cells and lent windows run. Every batch
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
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "batch/result_cache.hh"
#include "batch/runner.hh"
#include "core/parallel.hh"
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
    unsigned threads = 1;       //!< drain loops (0 = hardware)
    unsigned poll_ms = 200;     //!< spool scan period
    bool verbose = false;       //!< per-event progress on stderr
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

    /** Windows that idle drain loops ran for other loops' cells and
     *  for stream feeds (lifetime; testing). */
    std::uint64_t windowsLent() const { return windows_lent_.load(); }

    /** The most drain loops ever busy at once, each running a cell or
     *  a lent window (testing: the thread budget). */
    unsigned peakBusyLoops() const { return peak_busy_.load(); }

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
                    const std::string &directives)
            : stream(id, std::move(spool_path), directives)
        {}
    };

    /** @return the entry for @p id or throw ServiceError. */
    std::shared_ptr<StreamEntry> findStream(std::uint64_t id);

    /** Drop @p id (poisoned or closed); its spool file goes with it. */
    void eraseStream(std::uint64_t id);

    /** Worker-thread body: pop/execute/resolve until the heap
     *  closes, lending itself to posted windows while it is empty. */
    void drainLoop();

    /**
     * The drain loops lent to one running cell or stream feed: its
     * fan-out's offers queue for idle loops, and the ones no loop took
     * are withdrawn when the lender goes — before the cell's result is
     * stored or the feed returns.
     */
    class Lender;

    /** Run lent windows of @p run_next until none is left or a cell is
     *  queued (or the heap closed). */
    void lend(const core::Executor::RunNext &run_next);

    /** Counts one drain loop busy for its scope (peakBusyLoops()). */
    class BusyLoop;

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

    /** One window fan-out's offer to an idle drain loop. */
    struct Offer
    {
        const Lender *lender = nullptr; //!< withdraws it (identity only)
        core::Executor::RunNext run_next;
    };
    /** Offers in posting order (guarded by heap_mutex_; taken only
     *  while heap_ is empty). */
    std::deque<Offer> offers_;

    /** Drain loops, resolved from config_.threads. */
    const unsigned loops_;

    std::atomic<std::uint64_t> windows_lent_{0};
    std::atomic<unsigned> busy_{0};
    std::atomic<unsigned> peak_busy_{0};

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
};

} // namespace delorean::service

#endif // DELOREAN_SERVICE_SERVICE_HH
