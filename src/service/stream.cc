#include "service/stream.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "batch/error.hh"
#include "batch/plan.hh"
#include "checkpoint/livepoint.hh"
#include "workload/endian.hh"
#include "workload/trace_io.hh"

namespace delorean::service
{

namespace le = workload::le;
using workload::TraceFormat;

/**
 * Parse and vet the STREAM-OPEN directives. Everything a session
 * fatal_if()s on — a non-exact confidence, an invalid schedule or
 * hierarchy — must be rejected here with an exception: the directives
 * come from a peer, and fatal() takes the whole service down. The
 * directive parser already surfaces schedule/geometry/confidence-range
 * problems as BatchError; the stream-specific shape checks live here.
 */
core::DeloreanConfig
streamConfig(std::uint64_t id, const std::string &directives)
{
    batch::ManifestDirectives d;
    try {
        d = batch::parseDirectivesText(
            directives, "stream-" + std::to_string(id));
    } catch (const batch::BatchError &e) {
        throw ServiceError(e.what());
    }
    if (!d.workloads.empty())
        throw ServiceError(
            "STREAM-OPEN: directives must not name a workload; the "
            "workload is the streamed trace itself");
    if (d.configs.size() != 1)
        throw ServiceError("STREAM-OPEN: a stream runs exactly one "
                           "config (got " +
                           std::to_string(d.configs.size()) + ")");
    if (d.schedules.size() != 1)
        throw ServiceError("STREAM-OPEN: a stream runs exactly one "
                           "schedule (got " +
                           std::to_string(d.schedules.size()) + ")");
    if (d.methods.size() > 1 ||
        (d.methods.size() == 1 && d.methods[0] != "delorean"))
        throw ServiceError(
            "STREAM-OPEN: only the delorean method can run "
            "incrementally over a stream");

    core::DeloreanConfig config = d.configs[0].config;
    config.schedule = d.schedules[0].schedule;
    if (config.confidence > 0.0)
        throw ServiceError(
            "STREAM-OPEN: confidence-driven early stopping replays "
            "shuffled windows and needs the whole trace up front; "
            "streams require exact mode (confidence=0)");
    return config;
}

std::string
formatMrcPoints(const std::vector<std::pair<std::uint64_t, double>> &mrc)
{
    std::string text;
    char buf[64];
    for (const auto &[bytes, ratio] : mrc) {
        std::snprintf(buf, sizeof(buf), "%s%llu:%.17g",
                      text.empty() ? "" : ",",
                      static_cast<unsigned long long>(bytes), ratio);
        text += buf;
    }
    return text;
}

std::string
streamStatusLine(std::uint64_t id, std::uint64_t records,
                 unsigned windows_fed, unsigned windows_total,
                 double est_cpi, double ci_error, double mpki,
                 bool complete, const std::string &mrc)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "stream=%llu records=%llu windows_fed=%u "
                  "windows_total=%u est_cpi=%.17g ci_error=%.17g "
                  "mpki=%.17g complete=%u",
                  static_cast<unsigned long long>(id),
                  static_cast<unsigned long long>(records), windows_fed,
                  windows_total, est_cpi, ci_error, mpki,
                  complete ? 1u : 0u);
    std::string line = buf;
    if (!mrc.empty())
        line += " mrc=" + mrc;
    line += '\n';
    return line;
}

namespace
{

std::string
streamErr(std::uint64_t id)
{
    return "stream " + std::to_string(id) + ": ";
}

} // namespace

TraceSpool::TraceSpool(std::uint64_t id, std::string path,
                       std::uint64_t min_records)
    : id_(id),
      path_(std::move(path)),
      min_records_(min_records),
      out_(path_, std::ios::binary | std::ios::trunc)
{
    if (!out_)
        throw ServiceError(streamErr(id_) +
                           "cannot create spool file '" + path_ + "'");
}

TraceSpool::~TraceSpool()
{
    out_.close();
    std::remove(path_.c_str());
}

void
TraceSpool::parseHeader()
{
    if (pending_.size() < TraceFormat::header_size)
        return;
    const auto *p =
        reinterpret_cast<const std::uint8_t *>(pending_.data());
    if (std::memcmp(p, TraceFormat::magic.data(), 8) != 0)
        throw ServiceError(streamErr(id_) +
                           "bad trace magic (want DLRNTRC1)");
    if (le::getU32(p + 8) != TraceFormat::version)
        throw ServiceError(streamErr(id_) +
                           "unsupported trace version " +
                           std::to_string(le::getU32(p + 8)));
    if (le::getU32(p + 12) != TraceFormat::record_size)
        throw ServiceError(streamErr(id_) + "unsupported record size " +
                           std::to_string(le::getU32(p + 12)));
    if (le::getU32(p + 24) != 0)
        throw ServiceError(streamErr(id_) +
                           "reserved header bytes set");
    const std::uint32_t name_len = le::getU32(p + 28);
    if (name_len > TraceFormat::max_name_len)
        throw ServiceError(streamErr(id_) + "trace name length " +
                           std::to_string(name_len) + " exceeds " +
                           std::to_string(TraceFormat::max_name_len));

    declared_ = le::getU64(p + 16);
    if (declared_ < min_records_)
        throw ServiceError(
            streamErr(id_) + "trace declares " +
            std::to_string(declared_) + " records; the schedule "
            "spans " + std::to_string(min_records_));
    if (declared_ >
            (protocol::max_stream - TraceFormat::header_size -
             name_len) / TraceFormat::record_size)
        throw ServiceError(streamErr(id_) +
                           "declared trace size exceeds the " +
                           std::to_string(protocol::max_stream) +
                           "-byte stream limit");

    header_bytes_ = TraceFormat::header_size + name_len;
    if (pending_.size() < header_bytes_)
        return;
    out_.write(pending_.data(), std::streamsize(header_bytes_));
    if (!out_)
        throw ServiceError(streamErr(id_) + "spool write failed");
    pending_.erase(0, header_bytes_);
    header_done_ = true;
}

void
TraceSpool::spoolRecords()
{
    const std::uint64_t remaining = declared_ - records_;
    if (pending_.size() > remaining * TraceFormat::record_size)
        throw ServiceError(
            streamErr(id_) + "overflow: bytes past the " +
            std::to_string(declared_) + " records the header declared");
    const std::uint64_t complete =
        pending_.size() / TraceFormat::record_size;
    if (complete == 0)
        return;
    const std::size_t n =
        std::size_t(complete * TraceFormat::record_size);
    out_.write(pending_.data(), std::streamsize(n));
    if (!out_)
        throw ServiceError(streamErr(id_) + "spool write failed");
    pending_.erase(0, n);
    records_ += complete;
}

void
TraceSpool::append(const std::string &bytes)
{
    received_ += bytes.size();
    if (received_ > protocol::max_stream)
        throw ServiceError(streamErr(id_) + "stream exceeds the " +
                           std::to_string(protocol::max_stream) +
                           "-byte limit");
    pending_ += bytes;
    if (!header_done_)
        parseHeader();
    if (header_done_)
        spoolRecords();
}

void
TraceSpool::flush()
{
    out_.flush();
    if (!out_)
        throw ServiceError(streamErr(id_) + "spool write failed");
}

void
TraceSpool::requireComplete() const
{
    if (!header_done_)
        throw ServiceError(streamErr(id_) +
                           "closed before a complete trace header");
    if (!pending_.empty())
        throw ServiceError(streamErr(id_) + "closed mid-record (" +
                           std::to_string(pending_.size()) +
                           " dangling bytes)");
    if (records_ != declared_)
        throw ServiceError(streamErr(id_) + "closed after " +
                           std::to_string(records_) + " of " +
                           std::to_string(declared_) +
                           " declared records");
}

TraceStream::TraceStream(std::uint64_t id, std::string spool_path,
                         const std::string &directives)
    : id_(id),
      directives_(directives),
      config_(streamConfig(id, directives)),
      spool_(id, std::move(spool_path),
             config_.schedule.totalInstructions()),
      session_(config_)
{}

void
TraceStream::feedReady(core::Executor &executor)
{
    if (!spool_.headerDone())
        return;
    const auto &sched = config_.schedule;
    // Window r only reads the trace up to regionEnd(r) = spacing *
    // (r+1), so it becomes feedable the moment that many records are
    // spooled (core/session.hh).
    const std::uint64_t feedable = std::min<std::uint64_t>(
        sched.num_regions, spool_.records() / sched.spacing);
    const unsigned fed = session_.windowsFed();
    if (feedable <= fed)
        return;
    // Replay the spooled prefix in place: the limit reader tolerates
    // the growing file, so the spool stays byte-identical to the
    // streamed trace (no header patching).
    spool_.flush();
    workload::FileTrace trace(spool_.path(), false, spool_.records());
    session_.feedWindows(trace, unsigned(feedable) - fed, &executor);
}

TraceStream::AppendInfo
TraceStream::append(const std::string &bytes, core::Executor &executor)
{
    spool_.append(bytes);
    feedReady(executor);

    AppendInfo info;
    info.received = spool_.received();
    info.records = spool_.records();
    info.windows_fed = session_.windowsFed();
    return info;
}

TraceStream::CloseInfo
TraceStream::close(core::Executor &executor)
{
    spool_.requireComplete();
    feedReady(executor);

    CloseInfo info;
    info.result = session_.finish();
    info.windows = session_.windowsFed();

    // The spool is byte-identical to the trace the client streamed,
    // which is what makes the content key below equal an offline run's
    // key for the original file.
    spool_.flush();
    std::string manifest = directives_;
    if (!manifest.empty() && manifest.back() != '\n')
        manifest += '\n';
    manifest += "workload file:" + spool_.path() + "\n";
    try {
        const batch::BatchPlan plan = batch::BatchPlan::fromManifestText(
            manifest, "stream-" + std::to_string(id_));
        info.key = plan.cells().at(0).key;
    } catch (const batch::BatchError &e) {
        throw ServiceError(streamErr(id_) + e.what());
    }

    if (!config_.livepoint_file.empty()) {
        // The live-point key hashes the workload's *content* identity,
        // so warm state recorded against the spool resumes cleanly
        // against any byte-identical copy of the trace.
        try {
            checkpoint::writeLivePointFile(
                config_.livepoint_file,
                checkpoint::sessionLivePoints(
                    session_, "file:" + spool_.path()));
        } catch (const checkpoint::CheckpointError &e) {
            throw ServiceError(streamErr(id_) + e.what());
        }
    }
    return info;
}

std::string
TraceStream::statusLine() const
{
    const core::SessionEstimate est = session_.estimate();
    return streamStatusLine(id_, spool_.records(), est.windows_fed,
                            est.windows_total, est.mean_cpi,
                            est.ci_error, est.mpki, spool_.complete(),
                            formatMrcPoints(est.mrc));
}

} // namespace delorean::service
