/**
 * @file
 * ServiceClient: typed client side of the DLRNSRV1 protocol.
 *
 * One instance owns one connection to a running batch service and
 * turns the frame exchanges into typed calls. Server-side failures
 * (error replies) and transport failures both surface as ServiceError;
 * the CLI catches them and reports via fatal(), tests assert on them.
 *
 * Replies are structured `key=value` lines (the grammar is documented
 * in docs/service.md, "Reply grammar") and every accessor parses them
 * into a typed struct — status() → ServiceStatus, jobStatus() →
 * JobStatus, stats() → ServiceStats — so no caller outside the CLI's
 * display path ever string-matches raw reply text. The daemon and the
 * coordinator answer STATUS and STATS with one counter line
 * (service/queue.hh, counterLine()), so one parser per reply serves
 * both. The CLI renders the raw text (statusText()/statsText())
 * because that text *is* the human-readable format; everything
 * programmatic goes through the typed structs.
 *
 * A RESULT fetch parses the server's raw record bytes with the same
 * batch/result_io.hh reader the local cache uses, so the returned
 * MethodResult satisfies operator== against a direct BatchRunner run
 * of the same cell — the service adds transport, never drift.
 */

#ifndef DELOREAN_SERVICE_CLIENT_HH
#define DELOREAN_SERVICE_CLIENT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "batch/cache_key.hh"
#include "sampling/results.hh"
#include "service/protocol.hh"
#include "service/queue.hh"

namespace delorean::service
{

/**
 * Typed global STATUS reply: the counter line (the same keys on the
 * daemon and the coordinator), then one record per retained job.
 */
struct ServiceStatus : ServiceCounters
{
    FleetStats fleet_stats; //!< lease and stream-migration counters
    std::vector<JobStatus> jobs; //!< submission order
};

/** Typed STATS reply: the result cache's run counters, then the same
 *  counter line as STATUS. */
struct ServiceStats : ServiceCounters
{
    std::uint64_t last_run_executed = 0; //!< cells run, last job
    std::uint64_t last_run_cached = 0;   //!< cells served, last job
    std::uint64_t total_executed = 0;    //!< cells run, lifetime
    std::uint64_t total_cached = 0;      //!< cells served, lifetime
    FleetStats fleet_stats; //!< lease and stream-migration counters
};

/**
 * Delay before retry @p attempt (0-based): capped exponential
 * backoff with deterministic jitter, for the one loop that still
 * retries on a timer — a worker reconnecting after a ServiceError.
 * Job waits and idle workers park on the server instead (WAIT, LEASE
 * wait_ms). The base doubles per attempt and saturates at @p cap_ms;
 * jitter only ever *subtracts* (up to a quarter of the delay), so the
 * cap is a true upper bound — the property tests/test_service.cc
 * pins. @p seed decorrelates concurrent retriers (e.g. the pull
 * thread) without any global RNG state.
 */
unsigned pollBackoffMs(unsigned attempt, unsigned base_ms,
                       unsigned cap_ms, std::uint64_t seed);

class ServiceClient
{
  public:
    /** What SUBMIT came back with. */
    struct SubmitInfo
    {
        std::uint64_t job = 0;
        std::uint64_t cells = 0;
    };

    /**
     * What LEASE came back with (idle == true means no work): a work
     * unit, or a stream window range when the header carried a
     * stream= token (stream != 0).
     */
    struct LeaseInfo
    {
        bool idle = true;
        std::uint64_t lease = 0;
        unsigned deadline_ms = 0;
        std::uint64_t job = 0;
        std::vector<std::size_t> cells; //!< plan cell indices
        /** The coordinator's content keys, parallel to cells; the
         *  worker verifies its re-expansion reproduces them. */
        std::vector<batch::CacheKey> keys;
        /** The owning job's manifest text, or a stream's open
         *  directives. */
        std::string manifest;

        std::uint64_t stream = 0;  //!< stream id; 0 = a work unit
        unsigned from = 0;         //!< windows already committed
        unsigned to = 0;           //!< feed [from, to)
        bool finish = false;       //!< also produce the final result
        std::uint64_t records = 0; //!< spooled records safe to read
        std::string trace;  //!< spool path (shared filesystem)
        std::string prefix; //!< committed DLRNLVP1 path, "-" = none
    };

    /** What COMPLETE came back with. */
    struct CompleteInfo
    {
        std::uint64_t stored = 0;    //!< results that won first write
        std::uint64_t discarded = 0; //!< duplicates acked + dropped
        unsigned committed = 0; //!< a stream's committed windows now
    };

    /** Connect to the service at @p socket_path; throws ServiceError. */
    explicit ServiceClient(const std::string &socket_path);
    ~ServiceClient();

    ServiceClient(const ServiceClient &) = delete;
    ServiceClient &operator=(const ServiceClient &) = delete;

    /** @return true if something is accepting connections at @p path. */
    static bool ping(const std::string &socket_path);

    /** Submit manifest text; higher @p priority pops first. */
    SubmitInfo submit(
        const std::string &manifest_text,
        std::uint32_t priority = protocol::default_submit_priority);

    /** Typed global status (counters + one record per job). */
    ServiceStatus status();

    /**
     * The raw STATUS reply text, for the CLI's display path only —
     * the server's key=value rendering *is* the human-readable
     * format. Programmatic callers use status().
     */
    std::string statusText();

    /** One job's typed status; throws ServiceError for unknown ids. */
    JobStatus jobStatus(std::uint64_t job);

    /** @return true once the job completed (state done or failed). */
    bool jobDone(std::uint64_t job);

    /**
     * One WAIT: the server parks the request until the job is
     * terminal or @p timeout_ms passes (clamped to
     * protocol::max_wait_ms). @return the job's status then.
     */
    JobStatus waitJob(std::uint64_t job, unsigned timeout_ms);

    /**
     * WAIT in protocol::max_wait_ms slices until the job completes
     * or @p timeout_s elapses — no client-side sleeping, so a job
     * that finishes in 1 ms returns in about 1 ms. @return true when
     * the job finished.
     */
    bool waitForJob(std::uint64_t job, double timeout_s);

    /**
     * Pull one unit of fleet work from a coordinator (fleet workers
     * only): a ready work unit, else a stream's leasable window range.
     * With @p wait_ms > 0 the coordinator parks the request until
     * either is ready or the wait passes; 0 answers at once.
     */
    LeaseInfo lease(const std::string &worker_name = "",
                    unsigned wait_ms = 0);

    /** Extend a live lease. @return the fresh validity in ms. */
    unsigned renew(std::uint64_t lease);

    /**
     * Return a lease's results: serialized MethodResult records (a
     * unit's in unit order, a stream finish lease's one record, none
     * for a stream prefix lease); payloads past the frame cap stream
     * in chunks. @p tokens are a stream lease's extra header tokens
     * (windows= prefix= est_cpi= ci_error= mpki= mrc=, see
     * protocol.hh), empty for a unit.
     */
    CompleteInfo complete(std::uint64_t lease,
                          const std::string &payload,
                          const std::string &tokens = "");

    /** Report a failed lease with a diagnostic instead of results. */
    CompleteInfo completeError(std::uint64_t lease,
                               const std::string &message);

    /** What STREAM-APPEND came back with. */
    struct StreamAppendInfo
    {
        std::uint64_t received = 0; //!< total stream bytes so far
        std::uint64_t records = 0;  //!< complete records spooled
        unsigned windows_fed = 0;   //!< schedule windows analyzed
    };

    /** What STREAM-CLOSE came back with. */
    struct StreamCloseInfo
    {
        batch::CacheKey key; //!< fetch the final result via result()
        unsigned windows = 0;
    };

    /** A stream STATUS poll (docs/service.md, "Streaming warming"). */
    struct StreamStatus
    {
        std::uint64_t records = 0;
        unsigned windows_fed = 0;
        unsigned windows_total = 0;
        double est_cpi = 0.0;  //!< running mean CPI (0 before data)
        double ci_error = 0.0; //!< 95% relative half-width
        double mpki = 0.0;     //!< running LLC misses per kilo-inst
        bool complete = false; //!< every declared record spooled
        /** Running miss-ratio curve over the fed windows: (cache
         *  bytes, miss ratio) points, ascending; empty before data. */
        std::vector<std::pair<std::uint64_t, double>> mrc;
    };

    /**
     * Open a TRACE-STREAM. @p directives is manifest text describing
     * at most one config and schedule — no workload line; the workload
     * is the trace subsequently appended. @return the stream id.
     */
    std::uint64_t streamOpen(const std::string &directives);

    /** Append raw DLRNTRC1 bytes (any chunking, even mid-record). */
    StreamAppendInfo streamAppend(std::uint64_t stream,
                                  const std::string &bytes);

    /**
     * Follow the DLRNTRC1 file at @p path, which a recorder may still
     * be writing, into open stream @p stream: every @p poll_ms look at
     * the file and append only the bytes that already existed at the
     * previous look (a two-observation stability gate, so a
     * recorder's half-flushed tail is never sent), in slices of at
     * most max_append. A file that does not exist yet is waited for.
     * After each append @p progress (if set) sees the stream's STATUS;
     * @return that STATUS once every declared record is in
     * (complete), ready for streamClose(). Throws ServiceError when
     * the file vanishes after it was seen (the stream stays open) or
     * an append fails.
     */
    StreamStatus streamFollow(
        std::uint64_t stream, const std::string &path, unsigned poll_ms,
        const std::function<void(const StreamStatus &)> &progress = {});

    /** Largest STREAM-APPEND body the CLI and streamFollow() send: well
     *  under the 64 MiB frame cap. */
    static constexpr std::size_t max_append = 32u << 20;

    /** Close a complete stream; its result is cached under .key. */
    StreamCloseInfo streamClose(std::uint64_t stream);

    /** Poll the running estimate of an open stream. */
    StreamStatus streamStatus(std::uint64_t stream);

    /** Raw serialized record bytes for @p key (result_io format). */
    std::string resultBytes(const batch::CacheKey &key);

    /** resultBytes parsed back into a MethodResult. */
    sampling::MethodResult result(const batch::CacheKey &key);

    /** Typed cache + service counters (docs/service.md). */
    ServiceStats stats();

    /** The raw STATS reply text (CLI display path only). */
    std::string statsText();

    /** Ask the daemon to drain and exit. */
    void shutdown();

    /**
     * Make a call blocked on this connection in another thread (a
     * parked LEASE) fail at once with ServiceError, via shutdown(2).
     * The connection is dead afterwards; only the destructor may
     * follow.
     */
    void interrupt();

    /** pollBackoffMs band of worker reconnects: 25 ms doubling up to
     *  1 s. */
    static constexpr unsigned poll_base_ms = 25;
    static constexpr unsigned poll_cap_ms = 1000;

  private:
    /** One request/reply exchange; throws ServiceError on error replies. */
    std::string call(protocol::Opcode op, std::string body);

    /** Shared body of complete()/completeError() (chunked framing). */
    CompleteInfo completeCall(std::uint64_t lease, bool ok,
                              const std::string &payload,
                              const std::string &tokens);

    int fd_ = -1;
};

} // namespace delorean::service

#endif // DELOREAN_SERVICE_CLIENT_HH
