/**
 * @file
 * JobQueue: the job table both servers own.
 *
 * A *job* is one submitted manifest (socket SUBMIT or spool pickup);
 * its cells are keyed by their content cache key (batch/cache_key.hh).
 * The daemon (service.hh) and the coordinator (coordinator.hh) make
 * every job-level decision here, once, and keep only their execution
 * (the daemon's cell heap and drain loops; the coordinator's units
 * and leases):
 *
 *  - SUBMIT: probe() runs the validating ResultCache::load on every
 *    cell outside every lock, spread over a probe pool sized from the
 *    host; add() registers the job under the table lock. Hits are done
 *    at once, a miss whose key is already pending (queued or running,
 *    for any job) attaches to it, and the rest are fresh and go to the
 *    server's executor through add()'s admit callback. A miss that is
 *    not pending at add() is probed again if any key resolved since
 *    probe() began, so concurrent submitters execute each cell once.
 *  - resolve() fans one key's outcome out to every attached job; the
 *    first attached job owns the execution, the rest count a hit.
 *  - The newest max_finished_jobs finished jobs stay queryable.
 *  - waitJob() (WAIT) parks until the server settle()s the job.
 *  - Run counters live in memory, seeded from stats.tsv; STATS answers
 *    from memory, and one writer thread folds changes into stats.tsv
 *    outside every lock, merging with the file's totals so a
 *    concurrent batch_run's increments survive.
 *  - handle() answers job and global STATUS, WAIT, RESULT, STATS and
 *    SHUTDOWN, with one counter line (counterLine()) on both servers.
 *
 * All methods are thread-safe and never call back into a server while
 * holding the table lock, except add()'s admit callback — so the
 * coordinator may call in while holding its own mutex_.
 */

#ifndef DELOREAN_SERVICE_QUEUE_HH
#define DELOREAN_SERVICE_QUEUE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "batch/plan.hh"
#include "batch/result_cache.hh"
#include "core/parallel.hh"
#include "service/protocol.hh"

namespace delorean::service
{

/** Where a job came from (affects default priority and reporting). */
enum class JobSource
{
    Socket,
    Spool,
};

/** Public snapshot of one job's progress. */
struct JobStatus
{
    std::uint64_t id = 0;
    std::string name;           //!< manifest path or client-given tag
    JobSource source = JobSource::Socket;
    int priority = 0;
    std::size_t cells = 0;
    std::size_t done = 0;       //!< completed cells (ok or failed)
    std::size_t failed = 0;     //!< cells whose execution threw
    std::string first_error;    //!< first failure message, if any

    bool complete() const { return done == cells; }
    const char *state() const
    {
        if (!complete())
            return done == 0 ? "queued" : "running";
        return failed == 0 ? "done" : "failed";
    }
};

/**
 * Render @p status as its canonical STATUS line (plus the indented
 * `error:` line when a diagnostic exists). One formatter for both
 * servers, so clients parsing the state= token
 * (ServiceClient::jobDone) see one format.
 */
std::string jobStatusLine(const JobStatus &status);

/**
 * Parse jobStatusLine() text back into a JobStatus — the typed side
 * of the reply grammar (docs/service.md, "Reply grammar"). Strict:
 * job=, state=, cells= and done= are required, the state token must
 * agree with the state the parsed counters imply (a job name that
 * *contains* "state=done" cannot spoof completion), and name=
 * captures the rest of the line — every earlier token is space-free,
 * so the first " name=" marker is the genuine one. An indented
 * "  error: " second line restores first_error. Round-trips:
 * jobStatusLine(parseJobStatusLine(text)) == text for any text
 * jobStatusLine produced. Throws ServiceError on malformed text.
 */
JobStatus parseJobStatusLine(const std::string &text);

/** Job and cell counters: the table's share of the counter line. */
struct ServiceCounters
{
    std::uint64_t jobs_submitted = 0;
    std::uint64_t jobs_completed = 0;
    std::uint64_t job_failures = 0;
    std::uint64_t cells_total = 0;    //!< cells across all jobs
    std::uint64_t cells_executed = 0; //!< simulated by this server
    std::uint64_t cells_cached = 0;   //!< cache hits at SUBMIT
    std::uint64_t cells_deduped = 0;  //!< attached to pending keys
    std::uint64_t cells_pending = 0;  //!< keys queued or running now
    /** Requests parked right now: WAITs, plus a coordinator's LEASE
     *  wait_ms and STREAM-CLOSEs. */
    std::uint64_t parked = 0;
};

/** Lease and stream-migration counters: the coordinator's share of
 *  the counter line, all 0 on a daemon. */
struct FleetStats
{
    std::uint64_t units_ready = 0;  //!< awaiting a worker
    std::uint64_t units_leased = 0; //!< out on lease now
    std::uint64_t leases_granted = 0;
    std::uint64_t leases_renewed = 0;
    std::uint64_t leases_expired = 0;    //!< re-queued after timeout
    std::uint64_t results_stored = 0;    //!< first-write COMPLETEs
    std::uint64_t results_discarded = 0; //!< zombie duplicates
    std::uint64_t quota_rejections = 0;  //!< SUBMITs bounced
    std::uint64_t streams = 0;           //!< fleet streams opened
    std::uint64_t stream_leases = 0;
    std::uint64_t stream_handoffs = 0;
    std::uint64_t stream_windows = 0; //!< windows committed via handoff
    std::uint64_t streams_finished = 0;
    std::uint64_t streams_failed = 0;
};

/**
 * The one counter line of STATUS and STATS (docs/service.md, "Reply
 * grammar"): every key of both structs, in a fixed order, on both
 * servers.
 */
std::string counterLine(const ServiceCounters &jobs,
                        const FleetStats &fleet);

/**
 * Parse counterLine() text into @p jobs and @p fleet. Unknown keys are
 * skipped; a malformed value throws ServiceError.
 */
void parseCounterLine(const std::string &line, ServiceCounters &jobs,
                      FleetStats &fleet);

/**
 * The execution order of both servers' executors (the daemon's cell
 * heap, the coordinator's ready units) as the "less than" of a
 * std::push_heap max-heap: highest priority first, then the oldest
 * (lowest seq) within a priority, so interactive socket submissions
 * overtake bulk spool pickups.
 */
template <typename Item>
bool
heapBelow(const Item &a, const Item &b)
{
    if (a.priority != b.priority)
        return a.priority < b.priority;
    return a.seq > b.seq;
}

/** Who submitted a job. */
struct JobOrigin
{
    std::string name; //!< manifest path or "socket"
    JobSource source = JobSource::Socket;
    int priority = 0;
    std::string spool_path; //!< manifest to archive; empty for socket
    std::uint64_t client = 0; //!< connection id (coordinator quotas)
};

/** A job that just finished (every cell done or failed). */
struct FinishedJob
{
    JobStatus status;
    std::uint64_t executed = 0; //!< cells this job's execution owned
    std::uint64_t cached = 0;   //!< cells served by cache or dedupe
    std::string spool_path;
    std::uint64_t client = 0;
};

class JobQueue
{
  public:
    /** Finished jobs retained for STATUS: a long-running server's
     *  records and global STATUS reply stay bounded. */
    static constexpr std::size_t max_finished_jobs = 1000;

    /** Adds the server's own counters on top of the table's. */
    using CounterHook = std::function<void(ServiceCounters &, FleetStats &)>;

    /** add()'s hand-off, under the table lock before anything is
     *  registered: queue the new job's fresh cells for execution, or
     *  throw ServiceError to refuse the job. */
    using Admit = std::function<void(
        std::uint64_t id, const std::vector<const batch::BatchCell *> &)>;

    /** probe()'s verdict on one plan. */
    struct Probe
    {
        std::vector<char> hit; //!< per cell: a valid cache entry exists
        std::uint64_t resolved = 0; //!< keys resolved before the probe
    };

    /** A decoded, probed SUBMIT body (see submission()). */
    struct Submission
    {
        int priority = 0;
        std::string manifest;
        batch::BatchPlan plan;
        Probe probe;
    };

    struct Added
    {
        std::uint64_t id = 0;
        /** The job, if it finished at once: act, then settle(). */
        std::vector<FinishedJob> finished;
    };

    /** @p cache serves probes, RESULT and stats.tsv; @p counters adds
     *  the server's share of STATUS/STATS; @p shutdown runs once a
     *  SHUTDOWN's "ok" is on the wire. */
    explicit JobQueue(const batch::ResultCache &cache,
                      CounterHook counters = {},
                      std::function<void()> shutdown = {});
    ~JobQueue(); //!< flush()es

    JobQueue(const JobQueue &) = delete;
    JobQueue &operator=(const JobQueue &) = delete;

    /** Probe every cell of @p plan (no lock held). */
    Probe probe(const batch::BatchPlan &plan);

    /** Decode a SUBMIT body, parse its manifest and probe it. Throws
     *  ServiceError / BatchError. */
    Submission submission(const std::string &body);

    /** The SUBMIT reply: "job=<id> cells=<n>". */
    static protocol::Reply submitted(std::uint64_t id, std::size_t cells);

    /** Register @p plan as one job (file comment). Throws
     *  ServiceError once closed, or what @p admit throws. */
    Added add(const batch::BatchPlan &plan, const Probe &probe,
              const JobOrigin &origin, const Admit &admit);

    /** @return true while @p key is queued or running for some job. */
    bool pending(const batch::CacheKey &key) const;

    /** Record pending @p key's outcome on every attached job
     *  (@p executed: simulated and stored here). @return the jobs that
     *  just finished, to act on and then settle(). */
    std::vector<FinishedJob> resolve(const batch::CacheKey &key, bool ok,
                                     const std::string &error,
                                     bool executed);

    /** Mark @p finished settled and wake the WAITs parked on them. */
    void settle(const std::vector<FinishedJob> &finished);

    /** Block until job @p id is settled, @p timeout_ms passes, or
     *  release; @return its snapshot then, nullopt for unknown ids. */
    std::optional<JobStatus> waitJob(std::uint64_t id,
                                     unsigned timeout_ms);

    /** Wake every parked waitJob(); later ones return at once. */
    void releaseWaiters();

    /** Refuse further jobs and release waiters; in-flight keys still
     *  resolve(). */
    void close();

    /** Write the last run counters and stop the writer (idempotent). */
    void flush();

    /** Snapshot of one job; nullopt for unknown ids. */
    std::optional<JobStatus> job(std::uint64_t id) const;

    /** Snapshots of every retained job, submission order. */
    std::vector<JobStatus> jobs() const;

    /** The table's counters (the server's hook not applied). */
    ServiceCounters counters() const;

    /** Answer job and global STATUS, WAIT, RESULT, STATS, SHUTDOWN
     *  and stray RESULT-PART/END; a server routes its own opcodes (and
     *  stream STATUS) first. */
    protocol::Reply handle(const protocol::Request &request);

  private:
    struct JobRecord : FinishedJob
    {
        bool settled = false; //!< see settle()
    };

    /** Counters, run counters and eviction order of a job that just
     *  reached done == cells (locked). */
    FinishedJob finishLocked(JobRecord &job);

    /** Drop the oldest finished jobs past max_finished_jobs (locked). */
    void evictFinishedLocked();

    /** Writer thread body: fold changed run counters into stats.tsv. */
    void flushLoop();

    /** Global STATUS / STATS counter line, hook applied. */
    std::string serverCounterLine() const;

    const batch::ResultCache &cache_;
    CounterHook counter_hook_;
    std::function<void()> shutdown_hook_;
    /** Probe workers besides the caller; null on a one-core host. */
    std::unique_ptr<core::ThreadPool> probe_pool_;

    mutable std::mutex mutex_;
    /** Signals settled jobs (and release) to parked waitJob()s. */
    std::condition_variable settled_cv_;
    bool closed_ = false;
    bool released_ = false; //!< waitJob() returns at once
    std::uint64_t next_job_ = 1;
    /** Keys resolved so far; written under mutex_, read by probe(). */
    std::atomic<std::uint64_t> resolved_{0};
    ServiceCounters counters_;

    /** Pending keys by hex: the attached job ids, owner first (a job
     *  appears once per cell it has under that key). */
    std::unordered_map<std::string, std::vector<std::uint64_t>> pending_;

    std::unordered_map<std::uint64_t, JobRecord> jobs_;
    /** Submission order; may hold evicted ids until compacted. */
    std::deque<std::uint64_t> job_order_;
    /** Completion order — the eviction queue. */
    std::deque<std::uint64_t> finished_order_;

    /** Run counters as STATS reports them, and the part not yet in
     *  stats.tsv (its last_run_* are the latest job's). */
    batch::ResultCache::RunStats runs_;
    batch::ResultCache::RunStats unflushed_;
    bool dirty_ = false;
    bool flush_stop_ = false;
    std::condition_variable flush_cv_;
    std::thread flusher_; //!< last: started once the rest exists
};

} // namespace delorean::service

#endif // DELOREAN_SERVICE_QUEUE_HH
