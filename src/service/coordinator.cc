#include "service/coordinator.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <sstream>

#include "base/logging.hh"
#include "batch/error.hh"
#include "batch/result_io.hh"
#include "batch/runner.hh"
#include "checkpoint/livepoint.hh"
#include "service/server.hh"

namespace delorean::service
{

namespace
{

/**
 * Expired leases kept around so a zombie's COMPLETE can still be
 * interpreted (stored if it wins the first write, discarded
 * otherwise). Beyond this, a zombie is acked blind — harmless, the
 * re-lease re-executes.
 */
constexpr std::size_t max_retained_expired = 1024;

} // namespace

Coordinator::Coordinator(CoordinatorConfig config)
    : config_(std::move(config)), cache_(config_.cache_dir),
      jobs_(cache_,
            [this](ServiceCounters &jobs, FleetStats &fleet) {
                addCounters(jobs, fleet);
            },
            [this] { requestShutdown(); })
{
    if (config_.socket_path.empty())
        throw ServiceError("coordinator: no socket path");
    if (config_.lease_ms == 0)
        throw ServiceError("coordinator: lease period must be non-zero");
    if (config_.close_wait_ms == 0)
        throw ServiceError(
            "coordinator: close wait period must be non-zero");
}

Coordinator::~Coordinator()
{
    for (const auto &[id, stream] : streams_)
        removeStreamArtifacts(stream);
}

void
Coordinator::requestShutdown()
{
    // Parked WAITs first, so each answers before run() stops the
    // server (as on the daemon).
    jobs_.releaseWaiters();
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    work_cv_.notify_all();
    done_cv_.notify_all();
}

void
Coordinator::run()
{
    {
        SocketServer server(config_.socket_path,
                            [this](const protocol::Request &request,
                                   std::uint64_t client) {
                                return handle(request, client);
                            });
        server.start();
        if (config_.verbose)
            std::fprintf(stderr,
                         "[coordinator] listening on %s (cache %s, "
                         "lease %u ms)\n",
                         config_.socket_path.c_str(),
                         cache_.dir().c_str(), config_.lease_ms);
        std::unique_lock<std::mutex> lock(mutex_);
        done_cv_.wait(lock, [&] { return shutdown_; });
        // The lock drops first; then ~SocketServer stops accepting
        // and joins connections, whose parked requests shutdown_
        // released.
    }
    jobs_.close();
    jobs_.flush();
}

Coordinator::Counters
Coordinator::counters() const
{
    Counters counters;
    static_cast<ServiceCounters &>(counters) = jobs_.counters();
    addCounters(counters, counters);
    return counters;
}

void
Coordinator::addCounters(ServiceCounters &jobs, FleetStats &fleet) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    fleet = fleet_;
    jobs.parked += parked_;
}

protocol::Reply
Coordinator::handle(const protocol::Request &request,
                    std::uint64_t client)
{
    switch (request.op) {
      case protocol::Opcode::Submit:
        return handleSubmit(request.body, client);
      case protocol::Opcode::Status:
        if (request.body.rfind("stream=", 0) == 0)
            return handleStreamStatus(request.body);
        break;
      case protocol::Opcode::Lease:
        return handleLease(request.body);
      case protocol::Opcode::Renew:
        return handleRenew(request.body);
      case protocol::Opcode::Complete:
        return handleComplete(request.body);
      case protocol::Opcode::StreamOpen:
        return handleStreamOpen(request.body);
      case protocol::Opcode::StreamAppend:
        return handleStreamAppend(request.body);
      case protocol::Opcode::StreamClose:
        return handleStreamClose(request.body);
      case protocol::Opcode::StreamLease:
        return handleStreamLease(request.body);
      case protocol::Opcode::StreamHandoff:
        return handleStreamHandoff(request.body);
      default:
        break;
    }
    return jobs_.handle(request);
}

void
Coordinator::enqueueUnitLocked(Unit unit)
{
    ready_.push_back(std::move(unit));
    std::push_heap(ready_.begin(), ready_.end(), heapBelow<Unit>);
    fleet_.units_ready = ready_.size();
    work_cv_.notify_all();
}

void
Coordinator::armDeadlineLocked(Lease &lease)
{
    lease.deadline =
        Clock::now() + std::chrono::milliseconds(config_.lease_ms);
    // Parked LEASEs sleep until the earliest deadline, to sweep it
    // the moment it passes; an earlier one must re-arm them.
    if (deadlines_.empty() || lease.deadline < deadlines_.top().first)
        work_cv_.notify_all();
    deadlines_.emplace(lease.deadline, lease.id);
}

void
Coordinator::parkLocked(std::condition_variable &cv,
                        std::unique_lock<std::mutex> &lock,
                        Clock::time_point until)
{
    ++parked_;
    cv.wait_until(lock, until);
    --parked_;
}

protocol::Reply
Coordinator::handleSubmit(const std::string &body,
                          std::uint64_t client)
{
    // Parse and probe before taking mutex_: the probes are the slow
    // part of a hit, and nothing they read is the coordinator's.
    const JobQueue::Submission submit = jobs_.submission(body);
    const auto manifest =
        std::make_shared<const std::string>(submit.manifest);

    std::lock_guard<std::mutex> lock(mutex_);
    if (config_.submit_quota != 0 &&
        jobs_by_client_[client] >= config_.submit_quota) {
        ++fleet_.quota_rejections;
        return protocol::Reply::error(
            "submit quota exceeded (" +
            std::to_string(config_.submit_quota) +
            " jobs in flight for this connection); retry when one "
            "completes");
    }

    std::size_t units = 0;
    JobQueue::Added added;
    try {
        added = jobs_.add(
            submit.plan, submit.probe,
            {"socket", JobSource::Socket, submit.priority, "", client},
            [&](std::uint64_t id,
                const std::vector<const batch::BatchCell *> &fresh) {
                const auto groups = batch::planWorkUnits(fresh);
                if (ready_.size() + groups.size() >
                    config_.max_ready_units) {
                    ++fleet_.quota_rejections;
                    throw ServiceError(
                        "coordinator backlog full (" +
                        std::to_string(ready_.size()) +
                        " units awaiting workers); retry later");
                }
                for (const auto &members : groups) {
                    Unit unit;
                    unit.job = id;
                    unit.manifest = manifest;
                    unit.priority = submit.priority;
                    unit.seq = next_seq_++;
                    for (const std::size_t j : members) {
                        unit.indices.push_back(fresh[j]->index);
                        unit.keys.push_back(fresh[j]->key);
                    }
                    enqueueUnitLocked(std::move(unit));
                }
                units = groups.size();
            });
    } catch (const ServiceError &e) {
        return protocol::Reply::error(e.what());
    }
    ++jobs_by_client_[client];
    if (config_.verbose)
        std::fprintf(stderr,
                     "[coordinator] submit -> job %llu (%zu cells, "
                     "%zu units)\n",
                     (unsigned long long)added.id,
                     submit.plan.cells().size(), units);
    finishJobsLocked(added.finished);
    return JobQueue::submitted(added.id, submit.plan.cells().size());
}

protocol::Reply
Coordinator::handleLease(const std::string &body)
{
    const protocol::KeyValues header(body);
    const std::string worker = header.get("worker").value_or("");
    const auto wait_text = header.get("wait_ms");
    const unsigned wait_ms =
        wait_text ? protocol::parseWaitMs(*wait_text) : 0;

    std::unique_lock<std::mutex> lock(mutex_);
    const auto until =
        Clock::now() + std::chrono::milliseconds(wait_ms);
    for (;;) {
        const auto now = Clock::now();
        sweepExpiredLocked(now);
        if (auto reply = grantUnitLocked(worker))
            return std::move(*reply);
        // "none" also when a stream window is leasable: the worker's
        // STREAM-LEASE takes it next.
        if (shutdown_ || now >= until ||
            std::any_of(streams_.begin(), streams_.end(),
                        [](const auto &entry) {
                            return entry.second.leasable().has_value();
                        }))
            return protocol::Reply::success("none\n");
        // Sleep to the earliest lease deadline at most: its expiry
        // re-queues a unit with no other request arriving.
        parkLocked(work_cv_, lock,
                   deadlines_.empty()
                       ? until
                       : std::min(until, deadlines_.top().first));
    }
}

std::optional<protocol::Reply>
Coordinator::grantUnitLocked(const std::string &worker)
{
    while (!ready_.empty()) {
        std::pop_heap(ready_.begin(), ready_.end(), heapBelow<Unit>);
        Unit unit = std::move(ready_.back());
        ready_.pop_back();
        fleet_.units_ready = ready_.size();

        // Prune members resolved since the unit was queued (a zombie
        // COMPLETE that won the first write, or a failure fan-out).
        Unit live = pendingPart(unit);
        if (live.indices.empty())
            continue; // fully resolved while queued; nothing to lease

        Lease lease;
        lease.id = next_lease_++;
        lease.unit = std::move(live);
        lease.worker = worker;
        armDeadlineLocked(lease);
        ++fleet_.leases_granted;
        ++fleet_.units_leased;

        std::ostringstream os;
        os << "lease=" << lease.id
           << " deadline-ms=" << config_.lease_ms
           << " job=" << lease.unit.job << " cells=";
        for (std::size_t i = 0; i < lease.unit.indices.size(); ++i)
            os << (i ? "," : "") << lease.unit.indices[i];
        os << " keys=";
        for (std::size_t i = 0; i < lease.unit.keys.size(); ++i)
            os << (i ? "," : "") << lease.unit.keys[i].hex();
        os << "\n" << *lease.unit.manifest;
        if (config_.verbose)
            std::fprintf(stderr,
                         "[coordinator] lease %llu -> %s (job %llu, "
                         "%zu cells)\n",
                         (unsigned long long)lease.id,
                         worker.empty() ? "worker" : worker.c_str(),
                         (unsigned long long)lease.unit.job,
                         lease.unit.indices.size());
        const std::uint64_t lease_id = lease.id;
        leases_.emplace(lease_id, std::move(lease));
        return protocol::Reply::success(os.str());
    }
    return std::nullopt;
}

protocol::Reply
Coordinator::handleRenew(const std::string &body)
{
    const auto id_text = protocol::KeyValues(body).get("lease");
    if (!id_text)
        return protocol::Reply::error("RENEW: missing lease id");
    const std::uint64_t id = batch::parseCount(*id_text);

    std::lock_guard<std::mutex> lock(mutex_);
    sweepExpiredLocked(Clock::now());
    const auto it = leases_.find(id);
    if (it == leases_.end() || it->second.expired)
        return protocol::Reply::error("RENEW: lease " + *id_text +
                                      " is not active");
    armDeadlineLocked(it->second);
    ++fleet_.leases_renewed;
    return protocol::Reply::success(
        "deadline-ms=" + std::to_string(config_.lease_ms) + "\n");
}

protocol::Reply
Coordinator::handleComplete(const std::string &body)
{
    const protocol::KeyValues header(body);
    const auto id_text = header.get("lease");
    const auto status = header.get("status");
    if (!id_text || !status ||
        (*status != "ok" && *status != "error"))
        return protocol::Reply::error(
            "COMPLETE: malformed header (want lease=<id> "
            "status=ok|error)");
    const std::uint64_t id = batch::parseCount(*id_text);
    const std::size_t eol = body.find('\n');
    const std::string payload =
        eol == std::string::npos ? "" : body.substr(eol + 1);

    std::lock_guard<std::mutex> lock(mutex_);
    sweepExpiredLocked(Clock::now());

    const auto it = leases_.find(id);
    if (it == leases_.end()) {
        // A zombie so stale its lease record is gone. Ack: the
        // worker did nothing wrong, and the work was re-run anyway.
        return protocol::Reply::success("stored=0 discarded=0\n");
    }
    if (it->second.kind != LeaseKind::Cell)
        return protocol::Reply::error(
            "COMPLETE: lease " + *id_text +
            " is a stream lease; use STREAM-HANDOFF");
    Lease lease = std::move(it->second);
    leases_.erase(it);
    if (!lease.expired)
        --fleet_.units_leased;

    std::uint64_t stored = 0, discarded = 0;
    if (*status == "ok") {
        // Parse every record up front: a malformed payload must not
        // resolve a prefix of the unit and then fail the rest.
        std::vector<sampling::MethodResult> results;
        try {
            std::istringstream is(payload, std::ios::binary);
            for (std::size_t i = 0; i < lease.unit.keys.size(); ++i)
                results.push_back(
                    batch::readMethodResult(is, /*expect_end=*/false));
            if (is.peek() != std::char_traits<char>::eof())
                throw batch::BatchError(
                    "trailing bytes after the last record");
        } catch (const batch::BatchError &e) {
            if (!lease.expired) {
                for (const auto &key : lease.unit.keys)
                    finishJobsLocked(jobs_.resolve(
                        key, false,
                        std::string("worker returned a malformed "
                                    "result payload: ") +
                            e.what(),
                        false));
            }
            return protocol::Reply::error(
                std::string("COMPLETE: malformed payload: ") +
                e.what());
        }
        for (std::size_t i = 0; i < lease.unit.keys.size(); ++i) {
            const batch::CacheKey &key = lease.unit.keys[i];
            if (!jobs_.pending(key)) {
                // First write won already: ack and discard (the
                // zombie-duplicate contract).
                ++discarded;
                ++fleet_.results_discarded;
                continue;
            }
            cache_.store(key, results[i]);
            ++stored;
            ++fleet_.results_stored;
            finishJobsLocked(jobs_.resolve(key, true, "", true));
        }
    } else {
        // Execution failed on the worker. Only an *active* lease may
        // fail cells — a zombie's error must not poison a re-lease
        // that might still succeed.
        if (!lease.expired) {
            for (const auto &key : lease.unit.keys)
                finishJobsLocked(jobs_.resolve(key, false, payload, false));
        } else {
            discarded += lease.unit.keys.size();
            fleet_.results_discarded += lease.unit.keys.size();
        }
    }
    if (config_.verbose)
        std::fprintf(stderr,
                     "[coordinator] complete lease %llu: %s "
                     "stored=%llu discarded=%llu\n",
                     (unsigned long long)id, status->c_str(),
                     (unsigned long long)stored,
                     (unsigned long long)discarded);
    return protocol::Reply::success(
        "stored=" + std::to_string(stored) +
        " discarded=" + std::to_string(discarded) + "\n");
}

void
Coordinator::sweepExpiredLocked(Clock::time_point now)
{
    while (!deadlines_.empty() && deadlines_.top().first <= now) {
        const auto [deadline, id] = deadlines_.top();
        deadlines_.pop();
        const auto it = leases_.find(id);
        if (it == leases_.end() || it->second.expired ||
            it->second.deadline != deadline)
            continue; // completed, already expired, or renewed
        Lease &lease = it->second;
        lease.expired = true;
        ++fleet_.leases_expired;
        if (config_.verbose)
            std::fprintf(stderr,
                         "[coordinator] lease %llu expired; "
                         "re-queueing\n",
                         (unsigned long long)id);

        if (lease.kind == LeaseKind::Stream) {
            // The stream becomes leasable again from its committed
            // prefix. The record stays (bounded) so the zombie's
            // eventual handoff is understood — and can even win the
            // commit if it strictly extends the prefix.
            const auto st = streams_.find(lease.stream);
            if (st != streams_.end() && st->second.leased &&
                st->second.lease_id == id) {
                st->second.leased = false;
                work_cv_.notify_all();
            }
            retainExpiredLocked(id);
            continue;
        }
        --fleet_.units_leased;

        // Re-queue what is still unresolved; the lease record stays
        // (bounded) so the zombie's eventual COMPLETE is understood.
        Unit retry = pendingPart(lease.unit);
        if (!retry.indices.empty())
            enqueueUnitLocked(std::move(retry));

        retainExpiredLocked(id);
    }
}

void
Coordinator::retainExpiredLocked(std::uint64_t id)
{
    expired_order_.push_back(id);
    while (expired_order_.size() > max_retained_expired) {
        const std::uint64_t old = expired_order_.front();
        expired_order_.pop_front();
        const auto ot = leases_.find(old);
        if (ot != leases_.end() && ot->second.expired)
            leases_.erase(ot);
    }
}

Coordinator::Unit
Coordinator::pendingPart(const Unit &unit) const
{
    Unit live = unit;
    live.indices.clear();
    live.keys.clear();
    for (std::size_t i = 0; i < unit.keys.size(); ++i) {
        if (!jobs_.pending(unit.keys[i]))
            continue;
        live.indices.push_back(unit.indices[i]);
        live.keys.push_back(unit.keys[i]);
    }
    return live;
}

void
Coordinator::finishJobsLocked(const std::vector<FinishedJob> &finished)
{
    for (const FinishedJob &job : finished) {
        const auto ct = jobs_by_client_.find(job.client);
        if (ct != jobs_by_client_.end() && ct->second > 0 &&
            --ct->second == 0)
            jobs_by_client_.erase(ct);
        if (config_.verbose)
            std::fprintf(stderr,
                         "[coordinator] job %llu %s: executed=%llu "
                         "cached=%llu failed=%zu\n",
                         (unsigned long long)job.status.id,
                         job.status.state(),
                         (unsigned long long)job.executed,
                         (unsigned long long)job.cached,
                         job.status.failed);
    }
    jobs_.settle(finished);
}

protocol::Reply
Coordinator::handleStreamStatus(const std::string &body)
{
    const std::uint64_t id = protocol::parseStreamId(body, "STATUS");
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = streams_.find(id);
    if (it == streams_.end())
        return protocol::Reply::error("unknown stream " +
                                      std::to_string(id));
    const FleetStream &s = it->second;
    return protocol::Reply::success(streamStatusLine(
        id, s.spool->records(), s.committed,
        s.config.schedule.num_regions, s.est_cpi, s.ci_error, s.mpki,
        s.spool->complete(), s.mrc));
}

void
Coordinator::removeStreamArtifacts(const FleetStream &stream)
{
    // The committed prefix plus any orphaned worker prefixes share
    // the "<spool>.lvp" name prefix; the spool file itself is removed
    // by ~TraceSpool.
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path spool(stream.spool->path());
    const std::string stem = spool.filename().string() + ".lvp";
    for (const auto &entry : fs::directory_iterator(
             spool.parent_path(), ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind(stem, 0) == 0)
            fs::remove(entry.path(), ec);
    }
}

protocol::Reply
Coordinator::handleStreamOpen(const std::string &body)
{
    if (body.rfind("tail=", 0) == 0)
        return protocol::Reply::error(
            "STREAM-OPEN: tail following reads a local file; it needs "
            "a batch service ('batch_service serve'), not a fleet "
            "coordinator");

    const std::string dir = cache_.dir() + "/fleet-streams";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        throw ServiceError("STREAM-OPEN: cannot create spool "
                           "directory '" + dir + "': " + ec.message());

    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t id = ++next_stream_;
    FleetStream stream;
    stream.id = id;
    stream.directives = body;
    stream.config = streamConfig(id, body);
    stream.spool = std::make_unique<TraceSpool>(
        id, dir + "/" + std::to_string(id) + ".dlt",
        stream.config.schedule.totalInstructions());
    ++fleet_.streams;
    streams_.emplace(id, std::move(stream));
    if (config_.verbose)
        std::fprintf(stderr, "[coordinator] stream %llu opened\n",
                     (unsigned long long)id);
    return protocol::Reply::success("stream=" + std::to_string(id) +
                                    "\n");
}

protocol::Reply
Coordinator::handleStreamAppend(const std::string &body)
{
    const std::size_t eol = body.find('\n');
    if (eol == std::string::npos)
        throw ServiceError(
            "STREAM-APPEND: missing stream=<id> header line");
    const std::uint64_t id =
        protocol::parseStreamId(body.substr(0, eol), "STREAM-APPEND");

    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = streams_.find(id);
    if (it == streams_.end())
        return protocol::Reply::error("unknown stream " +
                                      std::to_string(id));
    FleetStream &stream = it->second;
    if (stream.failed) {
        // A worker failed the stream since the last append; surface
        // that now and reclaim the stream.
        const std::string error = stream.error;
        removeStreamArtifacts(stream);
        streams_.erase(it);
        done_cv_.notify_all();
        return protocol::Reply::error("stream " + std::to_string(id) +
                                      ": " + error);
    }
    if (stream.closing)
        return protocol::Reply::error("stream " + std::to_string(id) +
                                      " is closing");
    try {
        stream.spool->append(body.substr(eol + 1));
    } catch (const ServiceError &) {
        // Malformed header, overflow, spool I/O: the stream's state
        // is unrecoverable. Drop it so its spool is reclaimed; an
        // outstanding lease's handoff finds the stream gone and is
        // acked-and-discarded.
        removeStreamArtifacts(stream);
        streams_.erase(it);
        done_cv_.notify_all();
        throw;
    }

    if (stream.leasable())
        work_cv_.notify_all();

    std::ostringstream os;
    os << "received=" << stream.spool->received()
       << " records=" << stream.spool->records()
       << " windows_fed=" << stream.committed << "\n";
    return protocol::Reply::success(os.str());
}

protocol::Reply
Coordinator::handleStreamClose(const std::string &body)
{
    const std::uint64_t id =
        protocol::parseStreamId(body, "STREAM-CLOSE");

    std::unique_lock<std::mutex> lock(mutex_);
    {
        const auto it = streams_.find(id);
        if (it == streams_.end())
            return protocol::Reply::error("unknown stream " +
                                          std::to_string(id));
        // Incomplete bytes are the client's error and leave the
        // stream open, exactly like the local service.
        it->second.spool->requireComplete();
        it->second.spool->flush();
        it->second.closing = true;
    }

    // The finish lease is now grantable; wait for its handoff.
    work_cv_.notify_all();
    const auto until =
        Clock::now() + std::chrono::milliseconds(config_.close_wait_ms);
    const auto settled = [&] {
        const auto it = streams_.find(id);
        return it == streams_.end() || it->second.finished ||
               it->second.failed;
    };
    while (!settled() && !shutdown_ && Clock::now() < until)
        parkLocked(done_cv_, lock, until);
    const auto it = streams_.find(id);
    if (it == streams_.end())
        return protocol::Reply::error("stream " + std::to_string(id) +
                                      " was discarded during close");
    if (!settled())
        return protocol::Reply::error(
            shutdown_ ? "STREAM-CLOSE: the coordinator is shutting down"
                      : "STREAM-CLOSE: timed out after " +
                            std::to_string(config_.close_wait_ms) +
                            " ms waiting for the fleet to finish "
                            "stream " +
                            std::to_string(id) + "; retry");
    if (it->second.failed) {
        auto node = streams_.extract(it);
        lock.unlock();
        removeStreamArtifacts(node.mapped());
        return protocol::Reply::error("stream " + std::to_string(id) +
                                      ": " + node.mapped().error);
    }

    // Finished: the stream is ours now. Compute the content key
    // outside the lock — it digests the whole spool, and the spool is
    // byte-identical to the trace the client streamed, so the key
    // equals an offline run's key for the original file.
    auto node = streams_.extract(it);
    lock.unlock();
    FleetStream &stream = node.mapped();
    std::string manifest = stream.directives;
    if (!manifest.empty() && manifest.back() != '\n')
        manifest += '\n';
    manifest += "workload file:" + stream.spool->path() + "\n";
    batch::CacheKey key;
    try {
        const batch::BatchPlan plan = batch::BatchPlan::fromManifestText(
            manifest, "stream-" + std::to_string(id));
        key = plan.cells().at(0).key;
    } catch (const batch::BatchError &e) {
        removeStreamArtifacts(stream);
        throw ServiceError("stream " + std::to_string(id) + ": " +
                           e.what());
    }
    cache_.store(key, stream.result);
    removeStreamArtifacts(stream);
    if (config_.verbose)
        std::fprintf(stderr,
                     "[coordinator] stream %llu closed -> key %s "
                     "(%u windows)\n",
                     (unsigned long long)id, key.hex().c_str(),
                     stream.windows);
    return protocol::Reply::success(
        "key=" + key.hex() +
        " windows=" + std::to_string(stream.windows) + "\n");
}

std::optional<std::pair<unsigned, bool>>
Coordinator::FleetStream::leasable() const
{
    if (leased || finished || failed || !spool->headerDone())
        return std::nullopt;
    const auto &sched = config.schedule;
    const unsigned feedable = unsigned(std::min<std::uint64_t>(
        sched.num_regions, spool->records() / sched.spacing));
    const bool finish = closing && spool->complete();
    if (!finish && feedable <= committed)
        return std::nullopt;
    return std::make_pair(finish ? sched.num_regions : feedable, finish);
}

protocol::Reply
Coordinator::handleStreamLease(const std::string &body)
{
    const std::string worker =
        protocol::KeyValues(body).get("worker").value_or("");

    std::lock_guard<std::mutex> lock(mutex_);
    sweepExpiredLocked(Clock::now());

    for (auto &[sid, stream] : streams_) {
        const auto range = stream.leasable();
        if (!range)
            continue;
        const auto [to, finish] = *range;

        stream.spool->flush();
        Lease lease;
        lease.id = next_lease_++;
        lease.kind = LeaseKind::Stream;
        lease.worker = worker;
        lease.stream = sid;
        lease.from = stream.committed;
        lease.to = to;
        lease.finish = finish;
        armDeadlineLocked(lease);
        stream.leased = true;
        stream.lease_id = lease.id;
        ++fleet_.stream_leases;

        std::ostringstream os;
        os << "lease=" << lease.id
           << " deadline-ms=" << config_.lease_ms << " stream=" << sid
           << " from=" << lease.from << " to=" << lease.to
           << " finish=" << (finish ? 1 : 0)
           << " records=" << stream.spool->records()
           << " trace=" << stream.spool->path() << " prefix="
           << (stream.committed > 0 ? stream.prefix_path : "-") << "\n"
           << stream.directives;
        if (config_.verbose)
            std::fprintf(stderr,
                         "[coordinator] stream lease %llu -> %s "
                         "(stream %llu, windows [%u, %u)%s)\n",
                         (unsigned long long)lease.id,
                         worker.empty() ? "worker" : worker.c_str(),
                         (unsigned long long)sid, lease.from, lease.to,
                         finish ? ", finish" : "");
        const std::uint64_t lease_id = lease.id;
        leases_.emplace(lease_id, std::move(lease));
        return protocol::Reply::success(os.str());
    }
    return protocol::Reply::success("none\n");
}

protocol::Reply
Coordinator::handleStreamHandoff(const std::string &body)
{
    const protocol::KeyValues header(body);
    const auto id_text = header.get("lease");
    const auto status = header.get("status");
    if (!id_text || !status ||
        (*status != "ok" && *status != "error"))
        return protocol::Reply::error(
            "STREAM-HANDOFF: malformed header (want lease=<id> "
            "status=ok|error)");
    const std::uint64_t id = batch::parseCount(*id_text);
    const unsigned windows = unsigned(header.count("windows"));
    const std::string prefix = header.get("prefix").value_or("-");
    const double est_cpi = header.real("est_cpi");
    const double ci_error = header.real("ci_error");
    const double mpki = header.real("mpki");
    const std::string mrc = header.get("mrc").value_or("");
    const std::size_t eol = body.find('\n');
    const std::string payload =
        eol == std::string::npos ? "" : body.substr(eol + 1);

    // A handoff the coordinator does not commit must not leak the
    // worker's prefix file.
    const auto dropPrefix = [&] {
        if (prefix != "-")
            std::remove(prefix.c_str());
    };

    std::lock_guard<std::mutex> lock(mutex_);
    sweepExpiredLocked(Clock::now());
    ++fleet_.stream_handoffs;

    const auto lt = leases_.find(id);
    if (lt == leases_.end()) {
        // A zombie so stale its lease record is gone; the stream was
        // re-run anyway.
        dropPrefix();
        return protocol::Reply::success(
            "committed=0 stored=0 discarded=1\n");
    }
    if (lt->second.kind != LeaseKind::Stream)
        return protocol::Reply::error(
            "STREAM-HANDOFF: lease " + *id_text +
            " is a work-unit lease; use COMPLETE");
    const Lease lease = std::move(lt->second);
    leases_.erase(lt);

    const auto st = streams_.find(lease.stream);
    if (st == streams_.end()) {
        dropPrefix();
        return protocol::Reply::success(
            "committed=0 stored=0 discarded=1\n");
    }
    FleetStream &stream = st->second;
    if (stream.leased && stream.lease_id == id) {
        // Whatever this handoff commits, the stream's next windows
        // (appended meanwhile, or the old range after a rejection)
        // may be leasable once the lock drops.
        stream.leased = false;
        work_cv_.notify_all();
    }

    const auto ack = [&](std::uint64_t stored,
                         std::uint64_t discarded) {
        return protocol::Reply::success(
            "committed=" + std::to_string(stream.committed) +
            " stored=" + std::to_string(stored) +
            " discarded=" + std::to_string(discarded) + "\n");
    };

    if (*status == "error") {
        dropPrefix();
        // Only an *active* lease may fail the stream — a zombie's
        // error must not poison a re-lease that might still succeed.
        if (!lease.expired && !stream.finished && !stream.failed) {
            stream.failed = true;
            stream.error = payload.empty()
                               ? "worker reported an execution error"
                               : payload;
            ++fleet_.streams_failed;
            done_cv_.notify_all();
            return ack(0, 0);
        }
        return ack(0, 1);
    }

    if (stream.finished || stream.failed) {
        dropPrefix();
        return ack(0, 1);
    }

    if (lease.finish) {
        dropPrefix();
        if (windows != stream.config.schedule.num_regions)
            return protocol::Reply::error(
                "STREAM-HANDOFF: finish handoff covers " +
                std::to_string(windows) + " of " +
                std::to_string(stream.config.schedule.num_regions) +
                " windows");
        sampling::MethodResult result;
        try {
            std::istringstream is(payload, std::ios::binary);
            result = batch::readMethodResult(is);
        } catch (const batch::BatchError &e) {
            // The stream stays leasable; another worker can finish.
            return protocol::Reply::error(
                std::string("STREAM-HANDOFF: malformed result "
                            "payload: ") +
                e.what());
        }
        fleet_.stream_windows += windows - stream.committed;
        stream.committed = windows;
        stream.result = std::move(result);
        stream.finished = true;
        stream.windows = windows;
        stream.est_cpi = est_cpi;
        stream.ci_error = ci_error;
        stream.mpki = mpki;
        stream.mrc = mrc;
        ++fleet_.streams_finished;
        done_cv_.notify_all();
        if (config_.verbose)
            std::fprintf(stderr,
                         "[coordinator] stream %llu finished by "
                         "lease %llu\n",
                         (unsigned long long)lease.stream,
                         (unsigned long long)id);
        return ack(1, 0);
    }

    // Prefix handoff: first write per window count wins. Accept any
    // strict extension of the committed prefix — even from an expired
    // lease: a window's warm state is a pure function of the trace
    // bytes and the config, so duplicates are bit-identical.
    if (windows <= stream.committed) {
        dropPrefix();
        return ack(0, 1);
    }
    if (prefix == "-")
        return protocol::Reply::error(
            "STREAM-HANDOFF: prefix handoff without a prefix file");
    try {
        const auto warm = checkpoint::loadPrefixForRun(
            "stream:" + std::to_string(lease.stream), stream.config,
            prefix);
        if (warm.size() != windows)
            throw checkpoint::CheckpointError(
                "prefix file covers " + std::to_string(warm.size()) +
                " windows, header claims " + std::to_string(windows));
    } catch (const checkpoint::CheckpointError &e) {
        dropPrefix();
        // The stream stays leasable from the old prefix.
        return protocol::Reply::error(
            std::string("STREAM-HANDOFF: invalid prefix: ") + e.what());
    }
    const std::string dest = stream.spool->path() + ".lvp";
    if (std::rename(prefix.c_str(), dest.c_str()) != 0) {
        dropPrefix();
        return protocol::Reply::error(
            "STREAM-HANDOFF: cannot install prefix file '" + prefix +
            "'");
    }
    fleet_.stream_windows += windows - stream.committed;
    stream.committed = windows;
    stream.prefix_path = dest;
    stream.est_cpi = est_cpi;
    stream.ci_error = ci_error;
    stream.mpki = mpki;
    stream.mrc = mrc;
    if (config_.verbose)
        std::fprintf(stderr,
                     "[coordinator] stream %llu prefix -> %u windows "
                     "(lease %llu%s)\n",
                     (unsigned long long)lease.stream, windows,
                     (unsigned long long)id,
                     lease.expired ? ", zombie won" : "");
    return ack(1, 0);
}

} // namespace delorean::service
