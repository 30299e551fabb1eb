/**
 * @file
 * DLRNSRV1: the batch service wire protocol.
 *
 * A connection carries a sequence of request/reply frames over a
 * Unix-domain stream socket. Every frame is length-prefixed and fully
 * little-endian (workload/endian.hh helpers), mirroring the trace and
 * result file formats:
 *
 *   Request frame:
 *     char[8]  magic     "DLRNSRV1"
 *     u32      opcode    (Opcode below)
 *     u32      length    body byte count, <= max_body
 *     bytes    body
 *
 *   Reply frame:
 *     char[8]  magic     "DLRNSRV1"
 *     u32      status    0 = ok, 1 = error (body = message text)
 *     u32      length    body byte count, <= max_body
 *     bytes    body
 *
 * Request bodies:
 *
 *   SUBMIT    u32 priority + manifest text (batch/plan.hh format).
 *             Ok body: "job=<id> cells=<n>\n".
 *   STATUS    empty (global) or the decimal id of one job.
 *             Ok body: counter/job lines (docs/service.md).
 *   RESULT    32 lowercase hex digits: a cell's content cache key.
 *             Ok body: the *raw serialized record* (batch/result_io.hh,
 *             magic DLRNRES1) exactly as stored by the result cache —
 *             a client-side readMethodResult() yields a MethodResult
 *             that compares equal (operator==, doubles bitwise) to a
 *             local BatchRunner run of the same cell.
 *   STATS     empty. Ok body: cache stats.tsv counters + service
 *             counters, one k=v per token.
 *   SHUTDOWN  empty. Ok body: "ok\n"; the server stops accepting,
 *             drains in-flight cells and exits.
 *   WAIT      "job=<id> timeout_ms=<t>". Parks until the job reaches
 *             a terminal state or the timeout passes, then answers
 *             the same job line STATUS <id> would (terminal or not).
 *             Unknown ids are errors, as for STATUS.
 *
 * Fleet opcodes (coordinator/worker; docs/service.md):
 *
 *   LEASE     optional "worker=<name>" and "wait_ms=<t>". Ok body:
 *             "none\n" when idle, else one of two lease shapes. A
 *             work unit (granted first, while any is ready): a
 *             header line "lease=<id> deadline-ms=<ms> job=<job>
 *             cells=<i,j,...> keys=<hex,...>\n" followed by the
 *             owning job's manifest text; the worker re-expands the
 *             plan (expansion order is part of the BatchPlan API) and
 *             executes the named cells. A stream window range: a
 *             header line "lease=<id> deadline-ms=<ms> stream=<sid>
 *             from=<window> to=<window> finish=0|1 records=<n>
 *             trace=<spool path> prefix=<lvp path or ->\n" followed
 *             by the stream's open directives; the worker resumes the
 *             session from the DLRNLVP1 prefix (loadPrefixForRun +
 *             feedWarmWindows) and feeds windows [from, to). Without
 *             wait_ms an idle coordinator answers "none" at once;
 *             with it the request parks until a unit or a stream
 *             window is leasable, or the wait passes.
 *   RENEW     "lease=<id>". Ok body: "deadline-ms=<ms>\n"; error once
 *             the lease expired or was never granted.
 *   COMPLETE  header line "lease=<id> status=ok|error more=0|1", and
 *             for a stream lease also "windows=<n> prefix=<lvp path
 *             or -> est_cpi=<f> ci_error=<f> mpki=<f>
 *             mrc=<bytes>:<ratio>,...", then the payload: for a unit,
 *             concatenated serialized MethodResult records
 *             (batch/result_io.hh) in unit order; for a stream finish
 *             lease its one serialized MethodResult, for a stream
 *             prefix lease nothing (the prefix file carries the warm
 *             state); on error the diagnostic text. more=1 moves the
 *             payload out of this frame into a RESULT-PART/RESULT-END
 *             stream. Ok body: "stored=<n> discarded=<m>
 *             committed=<windows>\n" (committed: the stream's
 *             committed window count, 0 for a unit) — a zombie
 *             worker's duplicate COMPLETE is acked and discarded,
 *             never an error. Under a lease id the coordinator no
 *             longer knows, the kind is unknown: a header with
 *             windows= is acked "stored=0 discarded=1 committed=0",
 *             any other "stored=0 discarded=0 committed=0". A
 *             prefix= other than a file "*.lvp.<this lease id>" in the
 *             coordinator's spool directory counts as no prefix; that
 *             file is never read, moved or removed.
 *   RESULT-PART / RESULT-END
 *             payload chunks of a COMPLETE with more=1 (RESULT-END
 *             carries the final, possibly empty, chunk). Only valid
 *             inside such a stream; standalone frames are protocol
 *             violations. readRequest() reassembles the stream into
 *             one Request transparently, bounded by max_stream.
 *
 * TRACE-STREAM opcodes (streaming warming; docs/service.md):
 *
 *   STREAM-OPEN
 *             batch-manifest directives (config/schedule/methods only
 *             — the workload is the streamed trace itself). Ok body:
 *             "stream=<id>\n". The service starts a spooled trace and
 *             a resumable warming session for the stream.
 *   STREAM-APPEND
 *             "stream=<id>\n" + raw DLRNTRC1 bytes — any chunking,
 *             including mid-record and mid-header splits. Complete
 *             windows are analyzed as their bytes arrive. Ok body:
 *             "received=<bytes> records=<n> windows_fed=<k>\n".
 *   STREAM-CLOSE
 *             "stream=<id>". Requires exactly the byte count the
 *             stream's DLRNTRC1 header declared. Ok body:
 *             "key=<32 hex> windows=<n>\n" — the final MethodResult
 *             is in the result cache under that content key (RESULT
 *             fetches it), bit-identical to an offline run over the
 *             same bytes. STATUS with body "stream=<id>" polls the
 *             running estimate of an open stream.
 *
 * Opcodes 14 and 15 (the retired STREAM-LEASE and STREAM-HANDOFF;
 * stream window ranges now ride LEASE and COMPLETE) are unknown
 * opcodes: readRequest() rejects them.
 *
 * Replies larger than one frame stream the same way in the other
 * direction: writeReply() splits an oversized body into partial
 * frames (status 2, the reply-side RESULT-PART) closed by a final
 * status-0 frame, and readReply() reassembles them — a RESULT fetch
 * bigger than the 64 MiB frame cap round-trips without either side
 * ever allocating from an unvalidated length prefix.
 *
 * Readers validate everything (magic, opcode, length bound) and throw
 * ServiceError on any violation; a malformed or oversized frame must
 * drop the connection, never crash the daemon or allocate unbounded
 * memory. A clean EOF *between* request frames is the normal way a
 * client hangs up and is not an error.
 */

#ifndef DELOREAN_SERVICE_PROTOCOL_HH
#define DELOREAN_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace delorean::service
{

/**
 * Any user-facing failure in the service layer: malformed frames,
 * unreachable or dead sockets, server-reported request errors. CLIs
 * catch this and report via fatal(); the daemon catches it per
 * connection and drops the offender.
 */
class ServiceError : public std::runtime_error
{
  public:
    explicit ServiceError(const std::string &what)
        : std::runtime_error(what)
    {}
};

namespace protocol
{

constexpr char magic[8] = {'D', 'L', 'R', 'N', 'S', 'R', 'V', '1'};

/**
 * Frame body ceiling. Result records are a few KiB and manifests are
 * text; anything near this bound is a confused or hostile peer, and
 * the bound is what keeps a garbage length prefix from turning into a
 * multi-gigabyte allocation inside the daemon.
 */
constexpr std::uint32_t max_body = 64u << 20;

/**
 * Ceiling on a *reassembled* chunked payload (COMPLETE streams and
 * partial replies). Each chunk still obeys max_body; this bounds how
 * many of them one logical payload may carry, so a hostile peer
 * cannot stream unbounded memory either.
 */
constexpr std::uint64_t max_stream = 1ull << 30;

/** Reply status codes (the u32 where requests carry an opcode). */
constexpr std::uint32_t status_ok = 0;
constexpr std::uint32_t status_error = 1;
/** A partial body chunk; more frames follow, a status_ok frame ends. */
constexpr std::uint32_t status_part = 2;

enum class Opcode : std::uint32_t
{
    Submit = 1,
    Status = 2,
    Result = 3,
    Stats = 4,
    Shutdown = 5,
    Lease = 6,
    Renew = 7,
    Complete = 8,
    ResultPart = 9,
    ResultEnd = 10,
    StreamOpen = 11,
    StreamAppend = 12,
    StreamClose = 13,
    // 14 and 15 are retired (STREAM-LEASE, STREAM-HANDOFF).
    Wait = 16,
};

/**
 * Longest a WAIT or LEASE may park, in ms. Both servers clamp longer
 * requests to it, well under the 30 s socket I/O timeout
 * (service/server.cc), so a parked request never outlives its own
 * connection's timeout.
 */
constexpr unsigned max_wait_ms = 10000;

/**
 * Parse a wait duration (a WAIT timeout_ms= or LEASE wait_ms= value):
 * strict decimal, clamped to max_wait_ms. Throws ServiceError on
 * junk, signs or values past 64 bits.
 */
unsigned parseWaitMs(const std::string &text);

/** A parsed WAIT body. */
struct WaitRequest
{
    std::uint64_t job = 0;
    unsigned timeout_ms = 0; //!< clamped to max_wait_ms
};

/** Parse "job=<id> timeout_ms=<t>"; both are required. Throws
 *  ServiceError. */
WaitRequest parseWaitRequest(const std::string &body);

/**
 * The space-separated key=value tokens on the first line of a request
 * header or a reply: the shape of every DLRNSRV1 body except job
 * lines, whose free-text name needs parseJobStatusLine. Lookups see
 * the first token with a key; a token without '=' is a key with an
 * empty value.
 */
class KeyValues
{
  public:
    explicit KeyValues(const std::string &text);

    /** The value of @p key, or nullopt when absent. */
    std::optional<std::string> get(const std::string &key) const;

    /** @p key's value as a strict decimal count, or @p fallback when
     *  absent. Throws batch::BatchError on a malformed value. */
    std::uint64_t count(const std::string &key,
                        std::uint64_t fallback = 0) const;

    /** @p key's value as a real, 0 when absent. Throws
     *  batch::BatchError on a malformed value. */
    double real(const std::string &key) const;

    using Tokens = std::vector<std::pair<std::string, std::string>>;
    const Tokens &tokens() const { return tokens_; }

  private:
    Tokens tokens_;
};

/** Parse a "stream=<id>" body or header line (an optional trailing
 *  newline is ignored); @p what names the request in errors. Throws
 *  ServiceError. */
std::uint64_t parseStreamId(std::string text, const char *what);

/**
 * The SUBMIT priority clients send when they don't care: above the
 * spool's bulk priority (service.hh), so interactive work overtakes
 * dropped manifests. The one definition both ServiceClient's default
 * argument and documentation refer to.
 */
constexpr std::uint32_t default_submit_priority = 10;

/** @return a human-readable opcode name for diagnostics. */
const char *opcodeName(Opcode op);

struct Request
{
    Opcode op = Opcode::Status;
    std::string body;
};

struct Reply
{
    bool ok = true;
    std::string body; //!< payload, or the error message when !ok

    /**
     * Run by the server *after* the reply frame is on the wire; never
     * serialized. SHUTDOWN uses this to start the drain only once its
     * "ok" has been sent — triggering it from the handler would race
     * the server teardown against the reply write, and the shutdown
     * client would intermittently see a dropped connection instead.
     */
    std::function<void()> after_send;

    /**
     * Run by the server instead of after_send when the reply could
     * not be written (the peer hung up); never serialized. The
     * coordinator returns a lease granted to a worker that died while
     * its LEASE was parked this way.
     */
    std::function<void()> undelivered;

    static Reply success(std::string payload)
    {
        return Reply{true, std::move(payload), nullptr, nullptr};
    }

    static Reply error(const std::string &message)
    {
        return Reply{false, message, nullptr, nullptr};
    }
};

/**
 * Write @p count bytes to @p fd, retrying on EINTR and short writes.
 * Throws ServiceError if the peer is gone. (SIGPIPE must be disabled
 * process-wide; the daemon and the CLI both ignore it at startup.)
 */
void writeAll(int fd, const void *data, std::size_t count);

/**
 * Read exactly @p count bytes. @return false on clean EOF *before the
 * first byte*; throws ServiceError on EOF mid-buffer or read errors.
 */
bool readExact(int fd, void *data, std::size_t count);

void writeRequest(int fd, const Request &request);

/**
 * Read one request. @return nullopt on clean EOF (client hung up);
 * throws ServiceError on malformed input or truncation. A COMPLETE
 * whose header says more=1 is reassembled from its RESULT-PART/
 * RESULT-END continuation frames into one Request (body bounded by
 * max_stream); a standalone RESULT-PART/RESULT-END is rejected.
 */
std::optional<Request> readRequest(int fd);

/**
 * Write one reply. Bodies above max_body are split into status_part
 * frames closed by a final status_ok frame; error bodies must fit one
 * frame (they are short diagnostics by construction).
 */
void writeReply(int fd, const Reply &reply);

/**
 * Read one reply, reassembling status_part chunks (total bounded by
 * max_stream). EOF is always an error here: a client that sent a
 * request is owed a reply.
 */
Reply readReply(int fd);

/**
 * Send a COMPLETE for @p lease. When header + payload fit one frame
 * the payload rides inline (more=0); otherwise the header frame says
 * more=1 and the payload follows as RESULT-PART frames closed by a
 * RESULT-END — the request-side mirror of the chunked reply path.
 * @p ok selects status=ok (payload = serialized records) versus
 * status=error (payload = diagnostic text). @p tokens are extra
 * space-separated key=value header tokens (a stream lease's
 * windows= prefix= est_cpi= ci_error= mpki= mrc=), empty for a unit.
 */
void writeCompleteRequest(int fd, std::uint64_t lease, bool ok,
                          const std::string &payload,
                          const std::string &tokens = "");

} // namespace protocol

} // namespace delorean::service

#endif // DELOREAN_SERVICE_PROTOCOL_HH
