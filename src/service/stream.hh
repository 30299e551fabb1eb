/**
 * @file
 * TraceStream: one TRACE-STREAM ingestion in the batch service.
 *
 * A client opens a stream with batch-manifest directives (config/
 * schedule/methods — no workload line: the workload is the trace
 * being streamed), then appends the raw bytes of a DLRNTRC1 trace in
 * arbitrary chunks. The stream spools the bytes to a trace file and,
 * whenever enough complete records exist for the next schedule
 * window(s) — window r only ever reads the trace up to regionEnd(r) =
 * spacing * (r + 1), see core/session.hh — feeds them to a resumable
 * DeloreanSession. STATUS polls between appends return the running
 * CPI estimate (and MPKI / miss-ratio-curve points from the fed
 * windows' vicinity distributions), whose 95% confidence half-width
 * tightens as windows arrive without ever changing the final result.
 *
 * Closing requires exactly the bytes the stream's own DLRNTRC1 header
 * declared (a mid-record tail or a shortfall is an error and leaves
 * the stream open). The spool file is *byte-identical* to the trace
 * the client read at all times — partial reads go through
 * TraceReader's limit_records prefix mode instead of rewriting the
 * header — so the cell's content key — computed by expanding the open
 * directives plus a workload line naming the spool — equals the key
 * an offline `batch_run` computes for the original file (workload
 * identity is content, not path), and the cached final MethodResult
 * is bit-identical to the offline run over the same bytes (pinned by
 * tests/test_service.cc and the CI stream-smoke job).
 *
 * The byte-ingestion half lives in TraceSpool so the fleet
 * coordinator can host a *migrating* stream — spooling bytes and
 * leasing window ranges to workers (service/coordinator.hh) — with
 * the exact same header validation, overflow checks and close
 * discipline as the local session-feeding stream.
 *
 * Everything a peer controls is validated with ServiceError before it
 * can reach a fatal() path: the directives must describe exactly one
 * exact-mode delorean cell, the header must be a well-formed DLRNTRC1
 * header long enough for the schedule, and record bytes past the
 * declared count are an overflow error. A TraceError from garbage
 * record bytes surfaces on the append that feeds the poisoned window;
 * the service then discards the stream.
 */

#ifndef DELOREAN_SERVICE_STREAM_HH
#define DELOREAN_SERVICE_STREAM_HH

#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "batch/cache_key.hh"
#include "core/session.hh"
#include "service/protocol.hh"

namespace delorean::service
{

/**
 * Parse and vet STREAM-OPEN directives into the one exact-mode
 * delorean config a stream runs. Shared by the local stream, the
 * coordinator's migrating streams, and the workers resuming them — so
 * all three expand the byte-identical configuration. Throws
 * ServiceError on anything a session would fatal() on.
 */
core::DeloreanConfig streamConfig(std::uint64_t id,
                                  const std::string &directives);

/** Format MRC points as the wire token value "bytes:ratio,...". */
std::string
formatMrcPoints(const std::vector<std::pair<std::uint64_t, double>> &mrc);

/**
 * One "stream=<id> ... complete=0|1[ mrc=...]\n" STATUS line — the one
 * formatter for local and coordinator-hosted streams, so
 * ServiceClient::streamStatus parses one grammar.
 */
std::string streamStatusLine(std::uint64_t id, std::uint64_t records,
                             unsigned windows_fed, unsigned windows_total,
                             double est_cpi, double ci_error, double mpki,
                             bool complete, const std::string &mrc);

/**
 * The byte-ingestion half of a stream: validate the DLRNTRC1 header,
 * spool complete records to a trace file (mid-record splits buffer
 * until their record completes), police the declared record count and
 * the protocol's total stream ceiling. The spool file stays
 * byte-identical to the streamed prefix at all times; readers use
 * TraceReader's limit_records mode to replay it while it grows.
 */
class TraceSpool
{
  public:
    /**
     * Create the spool at @p path. @p min_records rejects headers
     * declaring fewer records than the schedule needs (at parse time,
     * not at the first starved feed). Throws ServiceError.
     */
    TraceSpool(std::uint64_t id, std::string path,
               std::uint64_t min_records);

    /** Removes the spool file. */
    ~TraceSpool();

    TraceSpool(const TraceSpool &) = delete;
    TraceSpool &operator=(const TraceSpool &) = delete;

    /**
     * Ingest the next chunk — any split, including mid-header and
     * mid-record. Throws ServiceError on malformed headers or
     * overflow past the declared record count.
     */
    void append(const std::string &bytes);

    /** Flush spooled bytes so an independent reader sees them. */
    void flush();

    const std::string &path() const { return path_; }
    bool headerDone() const { return header_done_; }
    std::uint64_t declared() const { return declared_; }
    std::uint64_t records() const { return records_; }
    std::uint64_t received() const { return received_; }
    std::size_t pendingBytes() const { return pending_.size(); }

    /** Every declared record spooled, nothing dangling. */
    bool complete() const
    {
        return header_done_ && pending_.empty() && records_ == declared_;
    }

    /** Throw the precise close-time diagnostic unless complete(). */
    void requireComplete() const;

  private:
    /** Try to complete header parsing from pending_. */
    void parseHeader();

    /** Move complete records from pending_ to the spool file. */
    void spoolRecords();

    std::uint64_t id_;
    std::string path_;
    std::uint64_t min_records_;

    std::ofstream out_;
    std::string pending_;          //!< bytes not yet spooled
    bool header_done_ = false;
    std::uint64_t header_bytes_ = 0;   //!< fixed header + name length
    std::uint64_t declared_ = 0;       //!< header's inst_count
    std::uint64_t records_ = 0;        //!< complete records spooled
    std::uint64_t received_ = 0;       //!< total bytes ingested
};

class TraceStream
{
  public:
    /**
     * Open a stream: parse and validate @p directives (see above) and
     * create the spool file at @p spool_path. Throws ServiceError (or
     * BatchError from the directive parser) on invalid input.
     */
    TraceStream(std::uint64_t id, std::string spool_path,
                const std::string &directives);

    TraceStream(const TraceStream &) = delete;
    TraceStream &operator=(const TraceStream &) = delete;

    struct AppendInfo
    {
        std::uint64_t received = 0; //!< total stream bytes so far
        std::uint64_t records = 0;  //!< complete records spooled
        unsigned windows_fed = 0;   //!< schedule windows analyzed
    };

    /**
     * Ingest the next chunk — any split, including mid-header and
     * mid-record — and feed every window whose bytes are now
     * complete, fanned out over @p executor (the daemon's idle drain
     * loops; bit-identical for any executor). Throws ServiceError on
     * malformed headers or overflow past the declared record count,
     * TraceError on garbage records.
     */
    AppendInfo append(const std::string &bytes, core::Executor &executor);

    struct CloseInfo
    {
        batch::CacheKey key;       //!< the cell's content cache key
        sampling::MethodResult result;
        unsigned windows = 0;
    };

    /**
     * Finish the stream: requires every declared record (and no
     * partial tail), feeds any remaining windows, and assembles the
     * final result + its offline-equal content key. When the open
     * directives named a livepoints= file, the session's warm state
     * is also persisted there (DLRNLVP1). Remaining windows fan out
     * over @p executor like append()'s. Throws ServiceError if the
     * stream is incomplete — it stays open for further appends.
     */
    CloseInfo close(core::Executor &executor);

    /** One streamStatusLine() for STATUS polls. */
    std::string statusLine() const;

    std::uint64_t id() const { return id_; }

    /** All declared bytes arrived (the tail follower's stop signal). */
    bool complete() const { return spool_.complete(); }

  private:
    /** Feed every window whose trace bytes are complete. */
    void feedReady(core::Executor &executor);

    std::uint64_t id_;
    std::string directives_;
    core::DeloreanConfig config_;
    TraceSpool spool_;
    core::DeloreanSession session_;
};

} // namespace delorean::service

#endif // DELOREAN_SERVICE_STREAM_HH
