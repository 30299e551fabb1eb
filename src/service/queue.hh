/**
 * @file
 * JobQueue: the service's priority work queue with in-flight dedupe.
 *
 * A *job* is one submitted manifest (socket SUBMIT or spool pickup); a
 * *task* is one cell to evaluate. Tasks are keyed by their content
 * cache key (batch/cache_key.hh), which gives two layers of dedupe:
 *
 *  - across time, the persistent ResultCache: a worker popping a task
 *    whose key is already cached serves the hit without simulating;
 *  - across concurrent submitters, this queue: a cell whose key is
 *    already queued *or running* attaches to the existing task instead
 *    of enqueuing a second execution, and the one completion fans out
 *    to every attached job.
 *
 * Pop order is highest priority first, FIFO within a priority (a
 * monotonic sequence number breaks ties), so interactive socket
 * submissions can overtake bulk spool pickups. Attaching never changes
 * a task's priority: the slot it occupies was already paid for by the
 * first submitter.
 *
 * All methods are thread-safe. pop() blocks until a task or close();
 * after close() pops drain nothing further (queued-but-unstarted tasks
 * are abandoned — their manifests stay in the spool for the next
 * serve), while tasks already popped finish normally and complete()
 * still fans out, which is exactly the "drain in-flight cells"
 * shutdown contract. waitJob() — the WAIT opcode — blocks until a
 * finished job is settle()d, its timeout passes, or
 * releaseWaiters()/close().
 */

#ifndef DELOREAN_SERVICE_QUEUE_HH
#define DELOREAN_SERVICE_QUEUE_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "batch/plan.hh"

namespace delorean::service
{

/** Where a job came from (affects default priority and reporting). */
enum class JobSource
{
    Socket,
    Spool,
};

/** One unit of work a worker executes. */
struct Task
{
    batch::BatchCell cell; //!< from the first submitter
    int priority = 0;
    std::uint64_t seq = 0; //!< FIFO tiebreak within a priority
    std::vector<std::uint64_t> jobs; //!< attached job ids
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
 * `error:` line when a diagnostic exists). One formatter for the
 * single-host service and the fleet coordinator, so clients parsing
 * the state= token (ServiceClient::jobDone) see one format.
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

/** A job that just reached done == cells (returned by complete()). */
struct FinishedJob
{
    JobStatus status;
    std::uint64_t executed = 0; //!< cells this job's tasks simulated
    std::uint64_t cached = 0;   //!< cells served by cache or dedupe
    std::string spool_path;     //!< manifest to move; empty for socket
};

class JobQueue
{
  public:
    /**
     * Completed jobs retained for STATUS queries. A long-running
     * daemon sees an unbounded stream of jobs; without eviction the
     * records (and the global STATUS reply built from them) would
     * grow forever. Active jobs are never evicted; the oldest
     * *finished* ones are, after which their ids report as unknown.
     */
    static constexpr std::size_t max_finished_jobs = 1000;
    /** Aggregate counters for STATUS/STATS. */
    struct Counters
    {
        std::uint64_t jobs_submitted = 0;
        std::uint64_t jobs_completed = 0;
        std::uint64_t jobs_failed = 0;
        std::uint64_t cells_enqueued = 0; //!< fresh tasks created
        std::uint64_t cells_deduped = 0;  //!< attached to in-flight tasks
        std::uint64_t queue_depth = 0;    //!< tasks awaiting a worker
        std::uint64_t running = 0;        //!< tasks popped, not completed
        std::uint64_t parked = 0;         //!< waitJob() calls blocked now
    };

    /**
     * Register @p plan as one job and enqueue its cells, attaching any
     * cell whose key is already queued/running to the existing task
     * (including a duplicate cell within the same plan). Plans are
     * never empty by construction (BatchPlan rejects zero workloads),
     * so every job completes through complete() fan-out.
     *
     * @p spool_path, when non-empty, is the manifest file to move once
     * the job finishes; it travels *with* the job because a fast
     * worker can complete every cell before the submitting thread
     * regains the CPU — any register-after-submit scheme is a lost
     * race. @return the new job id. Throws ServiceError once closed.
     */
    std::uint64_t addJob(const batch::BatchPlan &plan,
                         const std::string &name, JobSource source,
                         int priority,
                         const std::string &spool_path = "");

    /**
     * Block until a task is available or the queue is closed.
     * @return nullopt only after close() with nothing left to pop.
     */
    std::optional<Task> pop();

    /**
     * Record the outcome of a popped task and fan it out to every
     * attached job. @p executed tells whether the worker actually
     * simulated the cell (false = served from the result cache);
     * attached jobs beyond the first always count the cell as cached.
     * @return the jobs that just completed, for the caller to act on
     * (move spool manifests, fold cache run counters) outside the lock.
     */
    std::vector<FinishedJob> complete(const Task &task, bool ok,
                                      const std::string &error,
                                      bool executed);

    /**
     * Mark @p finished (complete()'s result) settled once their owner
     * has acted on them (run counters recorded, manifests moved), and
     * wake the waitJob() calls parked on them.
     */
    void settle(const std::vector<FinishedJob> &finished);

    /**
     * Block until job @p id is settled, @p timeout_ms passes, or
     * releaseWaiters()/close() is called; wakes only on those events.
     * Waiting for settle() rather than complete() means a WAIT never
     * answers ahead of the job's own bookkeeping. @return the job's
     * snapshot then (terminal or not), or nullopt for unknown ids.
     */
    std::optional<JobStatus> waitJob(std::uint64_t id,
                                     unsigned timeout_ms);

    /** Wake every blocked waitJob() and make later ones return at
     *  once (shutdown). Queued tasks are untouched. */
    void releaseWaiters();

    /** Wake every blocked pop() and waitJob() and refuse further
     *  work. */
    void close();

    bool closed() const;

    /** Snapshot of one job; nullopt for unknown ids. */
    std::optional<JobStatus> job(std::uint64_t id) const;

    /** Snapshots of every job, submission order. */
    std::vector<JobStatus> jobs() const;

    Counters counters() const;

  private:
    struct JobRecord
    {
        JobStatus status;
        std::uint64_t executed = 0;
        std::uint64_t cached = 0;
        std::string spool_path;
        bool settled = false; //!< see settle()
    };

    mutable std::mutex mutex_;
    std::condition_variable ready_;
    /** Signals settled jobs (and release) to blocked waitJob()s. */
    std::condition_variable finished_;
    bool closed_ = false;
    bool released_ = false; //!< waitJob() returns at once
    std::uint64_t next_job_ = 1;
    std::uint64_t next_seq_ = 0;
    Counters counters_;

    /** Queued + running tasks by key hex (the dedupe index). */
    std::unordered_map<std::string, std::shared_ptr<Task>> active_;
    /** Queued tasks only; pop() removes, completion erases active_. */
    std::vector<std::shared_ptr<Task>> heap_;

    /** Drop the oldest finished jobs past max_finished_jobs. */
    void evictFinishedLocked();

    std::unordered_map<std::uint64_t, JobRecord> jobs_;
    /** Submission order; may hold evicted ids until compacted. */
    std::deque<std::uint64_t> job_order_;
    /** Completion order — the eviction queue. */
    std::deque<std::uint64_t> finished_order_;
};

} // namespace delorean::service

#endif // DELOREAN_SERVICE_QUEUE_HH
