/**
 * @file
 * On-disk trace format: writer, buffered seekable reader, and the
 * file-backed TraceSource.
 *
 * Format (version 1, all integers little-endian regardless of host):
 *
 *   Header:
 *     char[8]  magic        "DLRNTRC1"
 *     u32      version      1
 *     u32      record_size  32 (bytes per instruction record)
 *     u64      inst_count   number of records that follow
 *     u32      reserved     0 (future flags; must be zero)
 *     u32      name_len     length of the workload name (<= 4096)
 *     char[n]  name         workload display name, not NUL-terminated
 *
 *   Records (inst_count x 32 bytes):
 *     u64      pc
 *     u64      addr         effective address (Load/Store), else 0
 *     u64      target       branch target (Branch), else 0
 *     u8       type         InstType (0 Load, 1 Store, 2 Branch, 3 Other)
 *     u8       flags        bit0 taken, bit1 dep_load; bits 2-7 zero
 *     u8       latency      execution latency class in cycles
 *     u8[5]    reserved     must be zero
 *
 * Records are fixed-width on purpose: instruction @c n lives at byte
 * offset <tt>data_offset + 32 n</tt>, so FileTrace::skip() is a pure
 * seek and clone() snapshots nothing but the position (clones share
 * the original's descriptor, workload/shared_file.hh) — the properties
 * the Time Traveling passes rely on (a checkpoint store over a file
 * trace costs a handful of integers per checkpoint). A hand-rolled
 * delta/varint packing would roughly halve the file size but would
 * need a block index to keep O(1) seeks; measure before switching.
 *
 * All reader errors — missing file, bad magic, unsupported version,
 * truncated or oversized payload, garbage record bytes — throw
 * TraceError with a diagnostic message; they never crash or invoke UB.
 */

#ifndef DELOREAN_WORKLOAD_TRACE_IO_HH
#define DELOREAN_WORKLOAD_TRACE_IO_HH

#include <array>
#include <cstdint>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "workload/trace_source.hh"

namespace delorean::workload
{

class SharedFile;

/** Any malformed-input or I/O failure in the trace file layer. */
class TraceError : public std::runtime_error
{
  public:
    explicit TraceError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Format constants shared by the writer and the reader. */
struct TraceFormat
{
    static constexpr std::array<char, 8> magic = {'D', 'L', 'R', 'N',
                                                  'T', 'R', 'C', '1'};
    static constexpr std::uint32_t version = 1;
    static constexpr std::uint32_t record_size = 32;
    /** Fixed part of the header, before the name bytes. */
    static constexpr std::uint32_t header_size = 32;
    static constexpr std::uint32_t max_name_len = 4096;

    /** Record flags (byte 25 of a record). */
    static constexpr std::uint8_t flag_taken = 1u << 0;
    static constexpr std::uint8_t flag_dep_load = 1u << 1;
};

/**
 * Streaming writer. Records are appended one instruction at a time;
 * finish() (or the destructor) patches the instruction count into the
 * header. Write failures throw TraceError.
 */
class TraceWriter
{
  public:
    /** Create/truncate @p path for a trace named @p name. */
    TraceWriter(const std::string &path, const std::string &name);

    /**
     * Declared-count mode: the header's inst_count is written up front
     * as @p declared instead of being patched at finish(), so a reader
     * tailing the growing file (TraceReader's limit_records) sees the
     * final record count from the first byte. finish() throws unless
     * exactly @p declared records were appended.
     */
    TraceWriter(const std::string &path, const std::string &name,
                InstCount declared);

    /** Flushes and closes via finish(); swallows errors (use finish()
     *  explicitly to observe them). */
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one instruction record. */
    void append(const Instruction &inst);

    /** Records written so far. */
    InstCount written() const { return written_; }

    /** Patch the header count, flush, and close. Idempotent. */
    void finish();

  private:
    std::ofstream out_;
    std::string path_;
    InstCount written_ = 0;
    InstCount declared_ = 0; //!< declared-count mode target
    bool declared_mode_ = false;
    bool finished_ = false;
};

/**
 * Buffered, seekable reader over one trace file.
 *
 * The full header is validated on open (magic, version, record size,
 * payload length against the file size). Records are fetched in chunks
 * and decoded lazily — one decode per next() — so recordsDecoded()
 * counts exactly the instructions materialized, which the tests use to
 * assert that seek() does no decoding work.
 */
class TraceReader
{
  public:
    /**
     * @param limit_records 0 validates the file length exactly against
     *        the header's inst_count (a complete recording). Nonzero
     *        presents exactly that many records from a file that may
     *        still be *growing*: the limit must not exceed the header's
     *        declared count, at least limit x 32 record bytes must
     *        already exist, and any bytes past the limit are ignored —
     *        the reader for a spooled stream prefix or a tailed
     *        recording, where the on-disk bytes stay byte-identical to
     *        the final trace at all times.
     */
    explicit TraceReader(const std::string &path,
                         InstCount limit_records = 0);

    /**
     * A reader of @p other's open file at the same position, reusing
     * its already-validated header metadata (Time Traveling clones
     * constantly; reopening or re-parsing per clone would be pure
     * waste). The copy shares the descriptor — reads are positioned
     * pread()s, safe across threads — so it reads the file @p other
     * opened even if the path was replaced since. It has its own
     * buffer and a fresh recordsDecoded() count.
     */
    TraceReader(const TraceReader &other);
    TraceReader &operator=(const TraceReader &) = delete;

    const std::string &path() const { return path_; }
    const std::string &name() const { return name_; }
    InstCount instCount() const { return count_; }
    InstCount position() const { return pos_; }

    /** Decode the record at the current position and advance.
     *  Throws TraceError past the last record. */
    Instruction next();

    /**
     * Decode @p n records in bulk, writing the cacheline number of
     * each Load/Store to @p lines; @return the number written. Every
     * record is validated exactly like next() would (garbage bytes
     * throw at the same index), but the loop extracts only the type
     * and address fields — the Explorer replay fast path. Counts all
     * @p n records as decoded. Throws (before consuming anything) if
     * fewer than @p n records remain.
     */
    InstCount memLines(Addr *lines, InstCount n);

    /** Jump to record @p pos (0..instCount(), the end being a valid
     *  "exhausted" position). O(1): no records are read or decoded. */
    void seek(InstCount pos);

    /** Total records decoded over the reader's lifetime (test hook). */
    std::uint64_t recordsDecoded() const { return decoded_; }

  private:
    void refill();

    std::string path_;
    std::string name_;
    std::shared_ptr<const SharedFile> file_;
    InstCount count_ = 0;
    InstCount pos_ = 0;
    std::uint64_t data_offset_ = 0;
    std::uint64_t decoded_ = 0;

    /** Raw bytes of records [buf_first_, buf_first_ + buf_records_). */
    std::vector<std::uint8_t> buf_;
    InstCount buf_first_ = 0;
    InstCount buf_records_ = 0;
};

/**
 * File-backed TraceSource over the native format.
 *
 * This is the library's stand-in for replaying a recorded execution:
 * clone() snapshots only the stream position (the "KVM checkpoint" of a
 * file trace is its offset — the decoder keeps no other state, see the
 * format notes above), and skip() seeks instead of decoding. A
 * non-looping trace throws TraceError once the recorded instructions
 * are exhausted, naming the file and its length, so a schedule that
 * outruns the recording fails loudly instead of silently repeating
 * traffic; pass loop = true for ChampSim-style wrap-around replay.
 */
class FileTrace : public TraceSource
{
  public:
    /**
     * @param limit_records forwarded to TraceReader: 0 replays the
     *        complete recording, nonzero replays exactly that prefix of
     *        a possibly-growing file.
     */
    explicit FileTrace(const std::string &path, bool loop = false,
                       InstCount limit_records = 0);

    Instruction next() override;
    InstCount position() const override { return pos_; }
    std::unique_ptr<TraceSource> clone() const override;
    void reset() override;
    const std::string &name() const override { return reader_.name(); }
    void skip(InstCount n) override;
    InstCount memLines(Addr *lines, InstCount n) override;

    /** Recorded length of the underlying file. */
    InstCount instCount() const { return reader_.instCount(); }

    /** Records decoded by this source's reader (test hook). */
    std::uint64_t recordsDecoded() const
    {
        return reader_.recordsDecoded();
    }

  private:
    FileTrace(const FileTrace &other);

    TraceReader reader_;
    bool loop_;
    InstCount pos_ = 0; //!< monotonic, keeps counting across loops
};

/**
 * Record @p count instructions from @p source to @p path.
 * @return the number of instructions written (always @p count).
 */
InstCount recordTrace(TraceSource &source, InstCount count,
                      const std::string &path);

} // namespace delorean::workload

#endif // DELOREAN_WORKLOAD_TRACE_IO_HH
