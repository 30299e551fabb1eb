/**
 * @file
 * Coordinator: fleet-scale fan-out of batch plans over DLRNSRV1.
 *
 * The daemon runs cells on its own threads; the coordinator runs them
 * on a *fleet*. It shares the daemon's job table (service/queue.hh):
 * the same SUBMIT path (hits resolve inside SUBMIT, pending keys
 * attach), the completion fan-out, WAIT and the STATUS/STATS/RESULT
 * replies, so every client and the `batch_service` CLI work
 * unchanged. It executes nothing itself: fresh cells form the same
 * co-schedulable work units a local run uses (batch::planWorkUnits),
 * and workers (service/worker.hh, `batch_service serve --worker`) pull
 * every kind of fleet work over three opcodes and one lease state
 * machine:
 *
 *   LEASE     a ready unit, with a lease id and deadline, the owning
 *             job's manifest, cell indices and content keys
 *             (re-expansion on the worker must reproduce the keys);
 *             once no unit is ready, a hosted stream's leasable
 *             window range (below). With wait_ms the request parks on
 *             work_cv_ until either is ready, or the wait passes.
 *   RENEW     extends a live lease's deadline; workers renew while a
 *             unit or window range runs.
 *   COMPLETE  returns the serialized MethodResults (chunked past the
 *             frame cap), stored through the coordinator's cache, so a
 *             cell computed on one worker is a hit for every later job;
 *             for a stream lease, the handoff below.
 *
 * Leases live in a deadline heap. A parked LEASE sleeps no later than
 * the earliest deadline, so an expired lease is swept and its unit
 * re-leased with no other request arriving; parked requests release
 * mutex_ while they sleep, and shutdown wakes them all. At-least-once
 * execution is safe because cells are content-keyed and idempotent:
 * the first COMPLETE of a key claims it and wins the store, and a
 * zombie's late duplicate is acked and discarded. COMPLETE parses its
 * records before taking mutex_ and stores the claimed ones after
 * releasing it, so file writes never stall other requests; a store
 * that fails fails its cells, and an active lease's error fails every
 * cell of its unit but the ones a concurrent COMPLETE claimed. A plan
 * run through N workers, with or without mid-plan deaths, is
 * bit-identical to a serial `batch_run` (pinned in
 * tests/test_service.cc and fleet-smoke CI). SUBMIT is
 * bounded by a per-client quota on in-flight jobs (client = the
 * accepting connection) and a global ready-unit ceiling, both
 * answered with an error reply to back off on.
 *
 * Migrating streams
 * -----------------
 *
 * The coordinator also hosts TRACE-STREAMs, but unlike the local
 * service it never feeds a session itself: it only spools the bytes
 * (service/stream.hh TraceSpool) and leases *window ranges* to
 * workers through the same LEASE/COMPLETE pair (wire formats in
 * protocol.hh):
 *
 *   LEASE     (stream shape) [from, to) windows of some stream, the
 *             spool path to read (shared filesystem), the committed
 *             warm prefix to resume from (a DLRNLVP1 file, or "-"
 *             from window 0), and the open directives.
 *   COMPLETE  (stream shape) the worker returns either a *longer*
 *             warm prefix (checkpoint::sessionLivePoints written next
 *             to the spool) or, for a finish lease, the final
 *             serialized MethodResult. Only a prefix file in the
 *             spool directory named for the COMPLETE's own lease is
 *             ever read, installed or removed.
 *
 * Commits are first-write-wins per *window count*: any handoff whose
 * prefix strictly extends the committed one is validated
 * (checkpoint::loadPrefixForRun against the stream's own config and
 * the synthetic spec "stream:<id>", outside mutex_ while the stream
 * stays leased) and installed — even from an expired lease, because a
 * window's warm state is a pure function of the trace bytes and the
 * config, so duplicates are bit-identical by construction. A worker
 * that dies mid-lease simply expires; the stream is re-leased from
 * the last committed prefix and the final CLOSE result is
 * bit-identical to an unmigrated or offline run over the same bytes
 * (the content key is computed from the spool, which stays
 * byte-identical to the streamed trace throughout). CLOSE blocks (up
 * to close_wait_ms) until a finish handoff lands, then stores the
 * result under the offline-equal content key.
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
#include <unordered_set>
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
    /** Every STATUS/STATS counter, flat (tests). */
    struct Counters : ServiceCounters, FleetStats
    {
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
        /** The owning job's manifest, re-sent with each lease. */
        std::shared_ptr<const std::string> manifest;
        std::vector<std::size_t> indices; //!< plan cell indices
        std::vector<batch::CacheKey> keys; //!< parallel to indices
        int priority = 0;
        std::uint64_t seq = 0; //!< FIFO tiebreak within a priority
    };

    enum class LeaseKind
    {
        Cell,   //!< a work unit of plan cells
        Stream, //!< a window range of a hosted stream
    };

    struct Lease
    {
        std::uint64_t id = 0;
        LeaseKind kind = LeaseKind::Cell;
        Unit unit;          //!< Cell leases only
        std::string worker;
        Clock::time_point deadline;
        /** Expired and re-queued; retained so a zombie COMPLETE can
         *  still be interpreted (and discarded or, if it raced the
         *  re-lease, win the first write). */
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
         *  settled or has no new window. LEASE grants exactly this
         *  once no unit is ready. */
        std::optional<std::pair<unsigned, bool>> leasable() const;
    };

    protocol::Reply handleSubmit(const std::string &body,
                                 std::uint64_t client);
    protocol::Reply handleStreamStatus(const std::string &body);
    protocol::Reply handleLease(const std::string &body);
    protocol::Reply handleRenew(const std::string &body);
    protocol::Reply handleComplete(const std::string &body);
    protocol::Reply handleStreamOpen(const std::string &body);
    protocol::Reply handleStreamAppend(const std::string &body);
    protocol::Reply handleStreamClose(const std::string &body);

    /** Lease the best ready unit to @p worker, or nullopt when none
     *  is ready (locked). */
    std::optional<protocol::Reply>
    grantUnitLocked(const std::string &worker);

    /** Lease the first stream's leasable window range to @p worker,
     *  or nullopt when none has one (locked). */
    std::optional<protocol::Reply>
    grantStreamLocked(const std::string &worker);

    /** A COMPLETE's header and, for status=ok, its payload's records,
     *  parsed before mutex_ is taken. */
    struct Completion
    {
        std::uint64_t lease = 0;
        bool ok = false;
        std::string error; //!< status=error's diagnostic
        std::vector<sampling::MethodResult> results;
        std::string malformed; //!< why the records did not parse
        /** Stream leases: windows covered, the worker's prefix file
         *  ("-" = none) and the running estimate. */
        unsigned windows = 0;
        std::string prefix = "-";
        double est_cpi = 0.0;
        double ci_error = 0.0;
        double mpki = 0.0;
        std::string mrc;
    };

    /** COMPLETE of unit lease @p lease (erased): claim, then store
     *  with @p lock released, then resolve. */
    protocol::Reply completeUnitLocked(const Lease &lease,
                                       const Completion &done,
                                       std::unique_lock<std::mutex> &lock);

    /** COMPLETE of stream lease @p lease (erased): fail, finish or
     *  commit a prefix, validated with @p lock released. */
    protocol::Reply
    completeStreamLocked(const Lease &lease, const Completion &done,
                         std::unique_lock<std::mutex> &lock);

    /** Make @p lease's stream leasable again if @p lease holds it
     *  (locked). */
    void releaseStreamLocked(const Lease &lease);

    /** Set @p lease's deadline lease_ms from now and push it on the
     *  deadline heap, waking parked LEASEs if it is the earliest
     *  (locked). */
    void armDeadlineLocked(Lease &lease);

    /** Park on @p cv until notified or @p until, counted in
     *  parked_. */
    void parkLocked(std::condition_variable &cv,
                    std::unique_lock<std::mutex> &lock,
                    Clock::time_point until);

    /** Re-queue every lease whose deadline has passed (locked). */
    void sweepExpiredLocked(Clock::time_point now);

    /** Expire active @p lease now: re-queue its unit's pending cells
     *  or release its stream, and retain the record (locked). */
    void expireLocked(Lease &lease);

    /** Arm and record @p lease, and answer with its header: the lease
     *  id and deadline, then @p shape (the rest of either reply
     *  shape). Returns the lease at once if the worker hung up before
     *  reading the grant (locked). */
    protocol::Reply grantLocked(Lease lease, const std::string &shape);

    /** Expire lease @p id if still active: its grant was never
     *  delivered. */
    void returnUndelivered(std::uint64_t id);

    /** Retain expired lease @p id for zombie replies, bounded
     *  (locked). */
    void retainExpiredLocked(std::uint64_t id);

    /** Push @p unit into the ready heap (locked). */
    void enqueueUnitLocked(Unit unit);

    /** @p unit without the members no longer pending or claimed
     *  (locked). */
    Unit pendingPart(const Unit &unit) const;

    /** Release the quota slots of @p finished jobs, then settle them
     *  so parked WAITs answer (locked). */
    void finishJobsLocked(const std::vector<FinishedJob> &finished);

    /** The coordinator's share of the counter line (JobQueue hook). */
    void addCounters(ServiceCounters &jobs, FleetStats &fleet) const;

    /** Remove the stream's committed prefix and any orphaned worker
     *  prefix files ("<spool>.lvp*"); the spool file itself dies with
     *  the TraceSpool. */
    static void removeStreamArtifacts(const FleetStream &stream);

    CoordinatorConfig config_;
    batch::ResultCache cache_;
    /** Where stream spools live, and workers write their prefix
     *  files ("<spool>.lvp.<lease>"): the only directory a COMPLETE's
     *  prefix= may name. */
    const std::string spool_dir_;
    /** The job table. A key pending there *is* the "needs execution"
     *  state; COMPLETEs for keys no longer pending are duplicates and
     *  are discarded. Always entered with mutex_ held, if at all. */
    JobQueue jobs_;

    /** Hex keys a COMPLETE has claimed and is storing outside mutex_;
     *  each resolves once its store ends (guarded by mutex_). */
    std::unordered_set<std::string> claimed_;

    mutable std::mutex mutex_;
    std::uint64_t next_lease_ = 1;
    std::uint64_t next_seq_ = 0;
    std::uint64_t next_stream_ = 0;
    FleetStats fleet_;
    std::uint64_t parked_ = 0; //!< LEASE wait_ms and STREAM-CLOSE

    /** In-flight jobs per client connection (quota accounting). */
    std::unordered_map<std::uint64_t, std::size_t> jobs_by_client_;

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
    /** Wakes parked STREAM-CLOSEs, and run(): a stream finished or
     *  failed, or shutdown. */
    std::condition_variable done_cv_;
    bool shutdown_ = false; //!< guarded by mutex_
};

} // namespace delorean::service

#endif // DELOREAN_SERVICE_COORDINATOR_HH
