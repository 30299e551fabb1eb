/**
 * @file
 * Coordinator: fleet-scale fan-out of batch plans over DLRNSRV1.
 *
 * The single-host BatchService drains one ThreadPool; the coordinator
 * drains a *fleet*. It accepts the same client-facing requests
 * (SUBMIT/STATUS/RESULT/STATS/SHUTDOWN, identical wire bodies, so
 * every existing client and the `batch_service` CLI work unchanged)
 * but executes nothing itself: submitted plans expand into the same
 * co-schedulable work units a local run uses
 * (batch::planWorkUnits), and worker daemons — today's batch_service
 * with a `--worker <coordinator-socket>` pull loop
 * (service/worker.hh) — pull them over three new opcodes:
 *
 *   LEASE     a worker asks for a unit and gets a lease id with a
 *             deadline plus the owning job's manifest text and cell
 *             indices (expansion order is part of the BatchPlan API,
 *             so re-expansion on the worker reproduces the identical
 *             cells and content keys — verified against the keys the
 *             lease carries). With wait_ms the request parks on
 *             work_cv_ until a unit is queued or re-queued, a stream
 *             window becomes leasable, or the wait passes.
 *   RENEW     extends a live lease's deadline (long cells).
 *   COMPLETE  returns the serialized MethodResult bytes (chunked via
 *             RESULT-PART/RESULT-END past the frame cap). The
 *             coordinator stores them through its own ResultCache, so
 *             a cell computed on one worker is a cache hit for every
 *             later job — the fleet's cache-entry exchange.
 *
 * Leases live in a deadline heap. A parked LEASE sleeps no later than
 * the heap's earliest deadline, so an expired lease is swept and its
 * unit re-leased without any other request arriving. WAIT parks on
 * done_cv_ until its job finishes. A parked request releases mutex_
 * while it sleeps, and shutdown wakes them all. A worker that crashes
 * or stalls past its deadline has its unit re-queued and re-leased;
 * that at-least-once execution is safe because cells are
 * content-keyed and idempotent — whoever finishes first wins the
 * store, and a zombie's late duplicate COMPLETE is acked and
 * discarded. The result of a
 * plan run through N workers (with or without mid-plan worker deaths)
 * is therefore bit-identical to a serial local `batch_run`
 * (MethodResult::operator==; pinned in tests/test_service.cc and the
 * fleet-smoke CI job).
 *
 * Cells dedupe exactly like the single-host queue: a cell already in
 * the result cache completes at submit time; a cell already pending
 * (queued or leased) for any job attaches to it, and the one COMPLETE
 * fans out to every waiter. SUBMIT is bounded two ways: a per-client
 * quota on in-flight jobs (client = the accepting connection) and a
 * global ready-unit ceiling; both reject with an error reply the
 * client can back off on — backpressure, not disconnection.
 *
 * Migrating streams
 * -----------------
 *
 * The coordinator also hosts TRACE-STREAMs, but unlike the local
 * service it never feeds a session itself: it only spools the bytes
 * (service/stream.hh TraceSpool) and leases *window ranges* to
 * workers over two more opcodes (wire formats in protocol.hh):
 *
 *   STREAM-LEASE    an idle worker asks for stream work and gets
 *                   [from, to) windows of some stream, the spool path
 *                   to read (shared filesystem), the committed warm
 *                   prefix to resume from (a DLRNLVP1 file, or "-"
 *                   from window 0), and the open directives.
 *   STREAM-HANDOFF  the worker returns either a *longer* warm prefix
 *                   (checkpoint::sessionLivePoints written next to
 *                   the spool) or, for a finish lease, the final
 *                   serialized MethodResult.
 *
 * Commits are first-write-wins per *window count*: any handoff whose
 * prefix strictly extends the committed one is validated
 * (checkpoint::loadPrefixForRun against the stream's own config and
 * the synthetic spec "stream:<id>") and installed — even from an
 * expired lease, because a window's warm state is a pure function of
 * the trace bytes and the config, so duplicates are bit-identical by
 * construction. A worker that dies mid-lease simply expires; the
 * stream is re-leased from the last committed prefix and the final
 * CLOSE result is bit-identical to an unmigrated or offline run over
 * the same bytes (the content key is computed from the spool, which
 * stays byte-identical to the streamed trace throughout). CLOSE
 * blocks (up to close_wait_ms) until a finish handoff lands, then
 * stores the result under the offline-equal content key.
 */

#ifndef DELOREAN_SERVICE_COORDINATOR_HH
#define DELOREAN_SERVICE_COORDINATOR_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "batch/plan.hh"
#include "batch/result_cache.hh"
#include "service/protocol.hh"
#include "service/queue.hh"
#include "service/stream.hh"

namespace delorean::service
{

struct CoordinatorConfig
{
    std::string socket_path; //!< required
    std::string cache_dir;   //!< empty = ResultCache::defaultDir()
    unsigned lease_ms = 10000; //!< lease validity; renewable
    /** Max in-flight (incomplete) jobs per client connection;
     *  0 disables the quota. */
    std::size_t submit_quota = 64;
    /** Global ceiling on units awaiting a worker; SUBMITs that would
     *  push past it are rejected (backpressure). */
    std::size_t max_ready_units = 100000;
    /** How long STREAM-CLOSE blocks for the fleet to finish the
     *  stream before telling the client to retry. */
    unsigned close_wait_ms = 120000;
    bool verbose = false;
};

class Coordinator
{
  public:
    /** Aggregate counters (STATUS/STATS and tests). */
    struct Counters
    {
        std::uint64_t jobs_submitted = 0;
        std::uint64_t jobs_completed = 0;
        std::uint64_t jobs_failed = 0;
        std::uint64_t cells_total = 0;   //!< cells across all jobs
        std::uint64_t cells_cached = 0;  //!< done from cache at submit
        std::uint64_t cells_deduped = 0; //!< attached to pending cells
        std::uint64_t units_ready = 0;   //!< awaiting a worker
        std::uint64_t units_leased = 0;  //!< currently out on lease
        std::uint64_t leases_granted = 0;
        std::uint64_t leases_renewed = 0;
        std::uint64_t leases_expired = 0;  //!< re-queued after timeout
        std::uint64_t results_stored = 0;  //!< first-write COMPLETEs
        std::uint64_t results_discarded = 0; //!< zombie duplicates
        std::uint64_t quota_rejections = 0;  //!< SUBMITs bounced
        std::uint64_t streams_opened = 0;
        std::uint64_t stream_leases = 0;   //!< stream leases granted
        std::uint64_t stream_handoffs = 0; //!< handoffs received
        std::uint64_t stream_windows = 0;  //!< windows committed
        std::uint64_t streams_finished = 0;
        std::uint64_t streams_failed = 0;
        /** Requests parked right now: WAIT, LEASE wait_ms and
         *  STREAM-CLOSE. */
        std::uint64_t parked = 0;
    };

    /** Validate the config and open the cache. Throws ServiceError. */
    explicit Coordinator(CoordinatorConfig config);

    /** Reclaims every hosted stream's spool and prefix files. */
    ~Coordinator();

    /**
     * Serve until shutdown: start the socket server and block.
     * Callable once per instance. Outstanding leases are simply
     * dropped at exit — their workers' COMPLETEs fail on a dead
     * socket and the cells re-run on the next submission (the same
     * "results simply re-execute" contract a killed daemon has).
     */
    void run();

    /** Trigger the same graceful shutdown a SHUTDOWN request does;
     *  releases every parked request. */
    void requestShutdown();

    Counters counters() const;

    const batch::ResultCache &cache() const { return cache_; }

    /**
     * Dispatch one request as if it arrived on connection @p client.
     * Public for in-process tests; run() wires it to the server.
     */
    protocol::Reply handle(const protocol::Request &request,
                           std::uint64_t client);

  private:
    using Clock = std::chrono::steady_clock;

    /** One leasable group of cells (indices into the owning job's
     *  plan), formed by batch::planWorkUnits at submit time. */
    struct Unit
    {
        std::uint64_t job = 0; //!< owning (first-submitter) job
        std::vector<std::size_t> indices; //!< plan cell indices
        std::vector<batch::CacheKey> keys; //!< parallel to indices
        int priority = 0;
        std::uint64_t seq = 0; //!< FIFO tiebreak within a priority
    };

    enum class LeaseKind
    {
        Cell,   //!< a work unit of plan cells (LEASE/COMPLETE)
        Stream, //!< a window range of a hosted stream (STREAM-*)
    };

    struct Lease
    {
        std::uint64_t id = 0;
        LeaseKind kind = LeaseKind::Cell;
        Unit unit;          //!< Cell leases only
        std::string worker;
        Clock::time_point deadline;
        /** Expired and re-queued; retained so a zombie COMPLETE or
         *  STREAM-HANDOFF can still be interpreted (and discarded or,
         *  if it raced the re-lease, win the first write). */
        bool expired = false;
        /** Stream leases: the leased window range [from, to) of
         *  stream, and whether the worker should finish() it. */
        std::uint64_t stream = 0;
        unsigned from = 0;
        unsigned to = 0;
        bool finish = false;
    };

    /** One coordinator-hosted, fleet-executed stream. */
    struct FleetStream
    {
        std::uint64_t id = 0;
        std::string directives;
        core::DeloreanConfig config;
        std::unique_ptr<TraceSpool> spool;
        /** Windows covered by the installed warm prefix. */
        unsigned committed = 0;
        std::string prefix_path; //!< "<spool>.lvp" once committed > 0
        bool leased = false;     //!< a window range is out on lease
        std::uint64_t lease_id = 0;
        bool closing = false;  //!< CLOSE received; finish lease open
        bool finished = false; //!< finish handoff landed
        bool failed = false;
        std::string error;
        sampling::MethodResult result; //!< valid once finished
        unsigned windows = 0;          //!< windows in the result
        /** Running estimate published by the last accepted handoff. */
        double est_cpi = 0.0;
        double ci_error = 0.0;
        double mpki = 0.0;
        std::string mrc; //!< formatted "bytes:ratio,..." token value

        /** The windows a lease could take now: {to, finish} for
         *  [committed, to), or nullopt while the stream is leased,
         *  settled or has no new window. STREAM-LEASE grants exactly
         *  this, and a parked LEASE answers "none" while any stream
         *  has it. */
        std::optional<std::pair<unsigned, bool>> leasable() const;
    };

    /** A cell of one job awaiting a pending key's result. */
    struct CellRef
    {
        std::uint64_t job = 0;
        std::size_t index = 0;
    };

    struct JobRec
    {
        JobStatus status;
        std::string manifest; //!< text re-sent with each lease
        std::uint64_t client = 0;
        std::uint64_t executed = 0;
        std::uint64_t cached = 0;
    };

    protocol::Reply handleSubmit(const std::string &body,
                                 std::uint64_t client);
    protocol::Reply handleStatus(const std::string &body);
    protocol::Reply handleResult(const std::string &body);
    protocol::Reply handleStats();
    protocol::Reply handleWait(const std::string &body);
    protocol::Reply handleLease(const std::string &body);
    protocol::Reply handleRenew(const std::string &body);
    protocol::Reply handleComplete(const std::string &body);
    protocol::Reply handleStreamOpen(const std::string &body);
    protocol::Reply handleStreamAppend(const std::string &body);
    protocol::Reply handleStreamClose(const std::string &body);
    protocol::Reply handleStreamLease(const std::string &body);
    protocol::Reply handleStreamHandoff(const std::string &body);

    /** Lease the best ready unit to @p worker, or nullopt when none
     *  is ready (locked). */
    std::optional<protocol::Reply>
    grantUnitLocked(const std::string &worker);

    /** Set @p lease's deadline lease_ms from now and push it on the
     *  deadline heap, waking parked LEASEs if it is the earliest
     *  (locked). */
    void armDeadlineLocked(Lease &lease);

    /** Park on @p cv until notified or @p until, counted in
     *  counters_.parked. */
    void parkLocked(std::condition_variable &cv,
                    std::unique_lock<std::mutex> &lock,
                    Clock::time_point until);

    /** Re-queue every lease whose deadline has passed (locked). */
    void sweepExpiredLocked(Clock::time_point now);

    /** Retain expired lease @p id for zombie replies, bounded
     *  (locked). */
    void retainExpiredLocked(std::uint64_t id);

    /** Push @p unit into the ready heap (locked). */
    void enqueueUnitLocked(Unit unit);

    /** Record one resolved cell on every waiter of @p hex; @p ok
     *  false marks it failed with @p error (locked). */
    void resolveKeyLocked(const std::string &hex, bool ok,
                          const std::string &error, bool executed);

    /** Completion bookkeeping once @p job reached done == cells
     *  (locked). */
    void finishJobLocked(JobRec &job);

    /** Remove the stream's committed prefix and any orphaned worker
     *  prefix files ("<spool>.lvp*"); the spool file itself dies with
     *  the TraceSpool. */
    static void removeStreamArtifacts(const FleetStream &stream);

    CoordinatorConfig config_;
    batch::ResultCache cache_;

    mutable std::mutex mutex_;
    std::uint64_t next_job_ = 1;
    std::uint64_t next_lease_ = 1;
    std::uint64_t next_seq_ = 0;
    std::uint64_t next_stream_ = 0;
    Counters counters_;

    std::unordered_map<std::uint64_t, JobRec> jobs_;
    std::deque<std::uint64_t> job_order_;
    std::deque<std::uint64_t> finished_order_; //!< eviction queue
    /** In-flight jobs per client connection (quota accounting). */
    std::unordered_map<std::uint64_t, std::size_t> jobs_by_client_;

    /** Pending cells by key hex: queued or leased, not yet resolved.
     *  Presence here *is* the "needs execution" state; COMPLETEs for
     *  keys absent from this map are duplicates and are discarded. */
    std::unordered_map<std::string, std::vector<CellRef>> waiters_;

    /** Ready units, highest priority first (FIFO within). */
    std::vector<Unit> ready_;

    std::unordered_map<std::uint64_t, Lease> leases_;
    /** Min-heap of (deadline, lease id); entries whose deadline no
     *  longer matches the lease (renewed) are skipped lazily. */
    std::priority_queue<
        std::pair<Clock::time_point, std::uint64_t>,
        std::vector<std::pair<Clock::time_point, std::uint64_t>>,
        std::greater<>>
        deadlines_;
    /** Expired leases retained for zombie COMPLETEs, oldest first
     *  (bounded; see max_retained_expired in coordinator.cc). */
    std::deque<std::uint64_t> expired_order_;

    /** Hosted streams in id order (stream leases scan in order). */
    std::map<std::uint64_t, FleetStream> streams_;

    /** Wakes parked LEASEs (over mutex_): a unit was queued, a stream
     *  window became leasable, an earlier lease deadline was armed,
     *  or shutdown. */
    std::condition_variable work_cv_;
    /** Wakes parked WAITs and STREAM-CLOSEs, and run(): a job or
     *  stream finished or failed, or shutdown. */
    std::condition_variable done_cv_;
    bool shutdown_ = false; //!< guarded by mutex_
};

} // namespace delorean::service

#endif // DELOREAN_SERVICE_COORDINATOR_HH
