#include "service/client.hh"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "batch/error.hh"
#include "batch/plan.hh"
#include "batch/result_io.hh"
#include "service/server.hh"
#include "workload/endian.hh"

namespace delorean::service
{

namespace
{

/** Comma-separated values split out of one "k=v,v,v" token value. */
std::vector<std::string>
splitCommas(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t comma = text.find(',', start);
        if (comma == std::string::npos) {
            out.push_back(text.substr(start));
            break;
        }
        out.push_back(text.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

/**
 * Run @p parse over the key=value tokens of @p reply's first line.
 * Reply values cross a process boundary, so they parse strictly
 * (batch::parseCount: digits only, no sign, no trailing junk,
 * range-checked); a malformed value, or a missing required key that
 * @p parse reports as a batch::BatchError, becomes a ServiceError
 * naming the request and the reply.
 */
template <typename Parse>
auto
parseReply(const char *what, const std::string &reply, Parse &&parse)
{
    try {
        return parse(protocol::KeyValues(reply));
    } catch (const batch::BatchError &e) {
        throw ServiceError(std::string(what) + ": malformed reply '" +
                           reply + "': " + e.what());
    }
}

/** Report a parsed reply that lacks what it must carry. */
void
require(bool ok, const char *what)
{
    if (!ok)
        throw batch::BatchError(what);
}

} // namespace

unsigned
pollBackoffMs(unsigned attempt, unsigned base_ms, unsigned cap_ms,
              std::uint64_t seed)
{
    if (base_ms == 0)
        base_ms = 1;
    if (cap_ms < base_ms)
        cap_ms = base_ms;
    std::uint64_t delay = base_ms;
    for (unsigned i = 0; i < attempt && delay < cap_ms; ++i)
        delay *= 2;
    if (delay > cap_ms)
        delay = cap_ms;
    // splitmix64 of (seed, attempt): deterministic, no global state.
    std::uint64_t z =
        seed + 0x9e3779b97f4a7c15ull * (std::uint64_t(attempt) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    // Jitter subtracts only (up to delay/4), so the cap stays a cap.
    return unsigned(delay - (z % (delay / 4 + 1)));
}

ServiceClient::ServiceClient(const std::string &socket_path)
{
    // A server that dies mid-exchange must surface as a ServiceError
    // on this thread, not kill the client process.
    std::signal(SIGPIPE, SIG_IGN);
    fd_ = connectToServer(socket_path);
}

ServiceClient::~ServiceClient()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
ServiceClient::ping(const std::string &socket_path)
{
    try {
        ::close(connectToServer(socket_path));
        return true;
    } catch (const ServiceError &) {
        return false;
    }
}

std::string
ServiceClient::call(protocol::Opcode op, std::string body)
{
    protocol::Request request;
    request.op = op;
    request.body = std::move(body);
    protocol::writeRequest(fd_, request);
    auto reply = protocol::readReply(fd_);
    if (!reply.ok)
        throw ServiceError(std::string(protocol::opcodeName(op)) +
                           ": " + reply.body);
    return std::move(reply.body);
}

ServiceClient::SubmitInfo
ServiceClient::submit(const std::string &manifest_text,
                      std::uint32_t priority)
{
    std::string body(4, '\0');
    workload::le::putU32(reinterpret_cast<std::uint8_t *>(body.data()),
                         priority);
    body += manifest_text;
    // "job=<id> cells=<n>\n".
    return parseReply("SUBMIT",
                      call(protocol::Opcode::Submit, std::move(body)),
                      [](const protocol::KeyValues &kv) {
                          const SubmitInfo info{kv.count("job"),
                                                kv.count("cells")};
                          require(info.job != 0, "no job id");
                          return info;
                      });
}

std::string
ServiceClient::statusText()
{
    return call(protocol::Opcode::Status, "");
}

ServiceStatus
ServiceClient::status()
{
    const std::string reply = statusText();
    ServiceStatus info;

    // Line 1 is the counter line; every line after it belongs to a
    // job record. The header must be parsed on its own because job
    // records end in a client-controlled name that can embed key=value
    // lookalikes.
    const std::size_t eol = reply.find('\n');
    parseCounterLine(reply.substr(0, eol), info, info.fleet_stats);

    // Job records: a "job=" line opens one, indented lines (the
    // "  error:" diagnostic) attach to the open record.
    std::vector<std::string> records;
    std::size_t pos = eol == std::string::npos ? reply.size() : eol + 1;
    while (pos < reply.size()) {
        const std::size_t next = reply.find('\n', pos);
        const std::string line =
            next == std::string::npos ? reply.substr(pos)
                                      : reply.substr(pos, next - pos);
        pos = next == std::string::npos ? reply.size() : next + 1;
        if (line.empty())
            continue;
        if (line.rfind("job=", 0) == 0)
            records.push_back(line + "\n");
        else if (!records.empty())
            records.back() += line + "\n";
        else
            throw ServiceError("STATUS: unexpected line '" + line +
                               "'");
    }
    info.jobs.reserve(records.size());
    for (const auto &record : records)
        info.jobs.push_back(parseJobStatusLine(record));
    return info;
}

JobStatus
ServiceClient::jobStatus(std::uint64_t job)
{
    return parseJobStatusLine(
        call(protocol::Opcode::Status, std::to_string(job)));
}

bool
ServiceClient::jobDone(std::uint64_t job)
{
    // The typed parse is what makes this robust: jobs are named by a
    // client-controlled string, so any substring search over the raw
    // line would let a manifest called "state=done.plan" make every
    // poll of its still-running job report finished.
    return jobStatus(job).complete();
}

JobStatus
ServiceClient::waitJob(std::uint64_t job, unsigned timeout_ms)
{
    return parseJobStatusLine(
        call(protocol::Opcode::Wait,
             "job=" + std::to_string(job) +
                 " timeout_ms=" + std::to_string(timeout_ms)));
}

bool
ServiceClient::waitForJob(std::uint64_t job, double timeout_s)
{
    using Clock = std::chrono::steady_clock;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_s));
    for (;;) {
        const auto left = std::chrono::ceil<std::chrono::milliseconds>(
            deadline - Clock::now());
        const auto slice = std::clamp<std::chrono::milliseconds::rep>(
            left.count(), 0, protocol::max_wait_ms);
        if (waitJob(job, unsigned(slice)).complete())
            return true;
        if (Clock::now() >= deadline)
            return false;
    }
}

ServiceClient::LeaseInfo
ServiceClient::lease(const std::string &worker_name, unsigned wait_ms)
{
    std::string body = worker_name.empty() ? "" : "worker=" + worker_name;
    if (wait_ms > 0)
        body += (body.empty() ? "wait_ms=" : " wait_ms=") +
                std::to_string(wait_ms);
    if (!body.empty())
        body += "\n";
    const std::string reply = call(protocol::Opcode::Lease, body);

    LeaseInfo info;
    if (reply == "none\n" || reply == "none")
        return info;
    const std::size_t eol = reply.find('\n');
    info.manifest = eol == std::string::npos ? "" : reply.substr(eol + 1);
    return parseReply(
        "LEASE", reply.substr(0, eol),
        [&](const protocol::KeyValues &kv) {
            info.lease = kv.count("lease");
            info.deadline_ms = unsigned(kv.count("deadline-ms"));
            info.stream = kv.count("stream");
            if (info.stream != 0) {
                info.from = unsigned(kv.count("from"));
                info.to = unsigned(kv.count("to"));
                info.finish = kv.count("finish") != 0;
                info.records = kv.count("records");
                info.trace = kv.get("trace").value_or("");
                info.prefix = kv.get("prefix").value_or("");
                require(info.lease != 0 && kv.get("to") &&
                            !info.trace.empty() && !info.prefix.empty() &&
                            info.to >= info.from,
                        "incomplete stream lease header");
                info.idle = false;
                return info;
            }
            info.job = kv.count("job");
            for (const auto &v : splitCommas(kv.get("cells").value_or("")))
                info.cells.push_back(std::size_t(batch::parseCount(v)));
            for (const auto &v : splitCommas(kv.get("keys").value_or("")))
                info.keys.push_back(batch::CacheKey::fromHex(v));
            require(info.lease != 0 && info.job != 0 &&
                        info.keys.size() == info.cells.size(),
                    "incomplete lease header");
            info.idle = false;
            return info;
        });
}

unsigned
ServiceClient::renew(std::uint64_t lease)
{
    return parseReply("RENEW",
                      call(protocol::Opcode::Renew,
                           "lease=" + std::to_string(lease)),
                      [](const protocol::KeyValues &kv) {
                          require(kv.get("deadline-ms").has_value(),
                                  "no deadline-ms");
                          return unsigned(kv.count("deadline-ms"));
                      });
}

ServiceClient::CompleteInfo
ServiceClient::complete(std::uint64_t lease, const std::string &payload,
                        const std::string &tokens)
{
    return completeCall(lease, true, payload, tokens);
}

ServiceClient::CompleteInfo
ServiceClient::completeError(std::uint64_t lease,
                             const std::string &message)
{
    return completeCall(lease, false, message, "");
}

ServiceClient::CompleteInfo
ServiceClient::completeCall(std::uint64_t lease, bool ok,
                            const std::string &payload,
                            const std::string &tokens)
{
    protocol::writeCompleteRequest(fd_, lease, ok, payload, tokens);
    auto reply = protocol::readReply(fd_);
    if (!reply.ok)
        throw ServiceError("COMPLETE: " + reply.body);
    return parseReply("COMPLETE", reply.body,
                      [](const protocol::KeyValues &kv) {
                          return CompleteInfo{
                              kv.count("stored"), kv.count("discarded"),
                              unsigned(kv.count("committed"))};
                      });
}

std::uint64_t
ServiceClient::streamOpen(const std::string &directives)
{
    return parseReply("STREAM-OPEN",
                      call(protocol::Opcode::StreamOpen, directives),
                      [](const protocol::KeyValues &kv) {
                          require(kv.get("stream").has_value(),
                                  "no stream id");
                          return kv.count("stream");
                      });
}

ServiceClient::StreamAppendInfo
ServiceClient::streamAppend(std::uint64_t stream,
                            const std::string &bytes)
{
    std::string body = "stream=" + std::to_string(stream) + "\n";
    body += bytes;
    return parseReply(
        "STREAM-APPEND",
        call(protocol::Opcode::StreamAppend, std::move(body)),
        [](const protocol::KeyValues &kv) {
            return StreamAppendInfo{kv.count("received"),
                                    kv.count("records"),
                                    unsigned(kv.count("windows_fed"))};
        });
}

ServiceClient::StreamStatus
ServiceClient::streamFollow(
    std::uint64_t stream, const std::string &path, unsigned poll_ms,
    const std::function<void(const StreamStatus &)> &progress)
{
    std::uint64_t offset = 0;
    std::optional<std::uint64_t> prev_size; // at the previous look
    for (bool first = true;; first = false) {
        if (!first)
            std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
        std::error_code ec;
        const std::uint64_t size = std::filesystem::file_size(path, ec);
        if (ec) {
            // Not created yet: following may start before the
            // recorder's first write. Once seen, a vanished file can
            // never complete the stream.
            if (prev_size)
                throw ServiceError("stream " + std::to_string(stream) +
                                   ": trace '" + path +
                                   "' vanished while being followed");
            continue;
        }
        // Stability gate: only bytes that already existed at the
        // previous look are sent, so a recorder's half-flushed tail is
        // never fed. A file that stopped growing drains completely on
        // the next look.
        const std::uint64_t target =
            prev_size ? std::min(size, *prev_size) : 0;
        prev_size = size;
        if (target <= offset)
            continue;
        std::ifstream in(path, std::ios::binary);
        in.seekg(std::streamoff(offset));
        while (offset < target) {
            std::string bytes(
                std::size_t(std::min<std::uint64_t>(max_append,
                                                    target - offset)),
                '\0');
            in.read(bytes.data(), std::streamsize(bytes.size()));
            if (!in)
                throw ServiceError("stream " + std::to_string(stream) +
                                   ": short read from trace '" + path +
                                   "'");
            (void)streamAppend(stream, bytes);
            offset += bytes.size();
        }
        const StreamStatus status = streamStatus(stream);
        if (progress)
            progress(status);
        if (status.complete)
            return status;
    }
}

ServiceClient::StreamCloseInfo
ServiceClient::streamClose(std::uint64_t stream)
{
    return parseReply(
        "STREAM-CLOSE",
        call(protocol::Opcode::StreamClose,
             "stream=" + std::to_string(stream)),
        [](const protocol::KeyValues &kv) {
            const auto key = kv.get("key");
            require(key.has_value(), "no key");
            return StreamCloseInfo{batch::CacheKey::fromHex(*key),
                                   unsigned(kv.count("windows"))};
        });
}

ServiceClient::StreamStatus
ServiceClient::streamStatus(std::uint64_t stream)
{
    return parseReply(
        "STATUS",
        call(protocol::Opcode::Status,
             "stream=" + std::to_string(stream)),
        [](const protocol::KeyValues &kv) {
            StreamStatus info;
            info.records = kv.count("records");
            info.windows_fed = unsigned(kv.count("windows_fed"));
            info.windows_total = unsigned(kv.count("windows_total"));
            info.est_cpi = kv.real("est_cpi");
            info.ci_error = kv.real("ci_error");
            info.mpki = kv.real("mpki");
            info.complete = kv.count("complete") != 0;
            const auto mrc = kv.get("mrc");
            for (const auto &point : mrc ? splitCommas(*mrc)
                                         : std::vector<std::string>{}) {
                const std::size_t colon = point.find(':');
                require(colon != std::string::npos,
                        "mrc point has no ':'");
                info.mrc.emplace_back(
                    batch::parseCount(point.substr(0, colon)),
                    batch::parseReal(point.substr(colon + 1)));
            }
            require(info.windows_total != 0, "no windows_total");
            return info;
        });
}

std::string
ServiceClient::resultBytes(const batch::CacheKey &key)
{
    return call(protocol::Opcode::Result, key.hex());
}

sampling::MethodResult
ServiceClient::result(const batch::CacheKey &key)
{
    std::istringstream is(resultBytes(key), std::ios::binary);
    return batch::readMethodResult(is);
}

std::string
ServiceClient::statsText()
{
    return call(protocol::Opcode::Stats, "");
}

ServiceStats
ServiceClient::stats()
{
    // Line 1: the result cache's run counters; line 2: the counter
    // line STATUS also starts with.
    const std::string reply = statsText();
    ServiceStats info = parseReply(
        "STATS", reply, [](const protocol::KeyValues &kv) {
            ServiceStats runs;
            runs.last_run_executed = kv.count("last_run_executed");
            runs.last_run_cached = kv.count("last_run_cached");
            runs.total_executed = kv.count("total_executed");
            runs.total_cached = kv.count("total_cached");
            return runs;
        });
    const std::size_t eol = reply.find('\n');
    if (eol != std::string::npos)
        parseCounterLine(reply.substr(eol + 1), info, info.fleet_stats);
    return info;
}

void
ServiceClient::shutdown()
{
    (void)call(protocol::Opcode::Shutdown, "");
}

void
ServiceClient::interrupt()
{
    (void)::shutdown(fd_, SHUT_RDWR);
}

} // namespace delorean::service
