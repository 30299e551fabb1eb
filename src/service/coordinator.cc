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
      spool_dir_(cache_.dir() + "/fleet-streams"),
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
        // Units first: a stream window waits for every ready unit.
        if (auto reply = grantUnitLocked(worker))
            return std::move(*reply);
        if (auto reply = grantStreamLocked(worker))
            return std::move(*reply);
        if (shutdown_ || now >= until)
            return protocol::Reply::success("none\n");
        // Sleep to the earliest lease deadline at most: its expiry
        // re-queues a unit with no other request arriving.
        parkLocked(work_cv_, lock,
                   deadlines_.empty()
                       ? until
                       : std::min(until, deadlines_.top().first));
    }
}

protocol::Reply
Coordinator::grantLocked(Lease lease, const std::string &shape)
{
    armDeadlineLocked(lease);
    const std::uint64_t id = lease.id;
    leases_.emplace(id, std::move(lease));
    protocol::Reply reply = protocol::Reply::success(
        "lease=" + std::to_string(id) +
        " deadline-ms=" + std::to_string(config_.lease_ms) + " " + shape);
    // A worker that died while its LEASE was parked never reads the
    // grant: return the lease at once instead of at its deadline.
    reply.undelivered = [this, id] { returnUndelivered(id); };
    return reply;
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
        ++fleet_.leases_granted;
        ++fleet_.units_leased;

        std::ostringstream os;
        os << "job=" << lease.unit.job << " cells=";
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
        return grantLocked(std::move(lease), os.str());
    }
    return std::nullopt;
}

std::optional<protocol::Reply>
Coordinator::grantStreamLocked(const std::string &worker)
{
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
        stream.leased = true;
        stream.lease_id = lease.id;
        ++fleet_.stream_leases;

        std::ostringstream os;
        os << "stream=" << sid << " from=" << lease.from
           << " to=" << lease.to
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
        return grantLocked(std::move(lease), os.str());
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

namespace
{

/** The COMPLETE reply; committed is 0 for a unit. */
protocol::Reply
completed(std::uint64_t stored, std::uint64_t discarded,
          unsigned committed)
{
    return protocol::Reply::success(
        "stored=" + std::to_string(stored) +
        " discarded=" + std::to_string(discarded) +
        " committed=" + std::to_string(committed) + "\n");
}

} // namespace

protocol::Reply
Coordinator::handleComplete(const std::string &body)
{
    // Parse the header and every record before taking mutex_: only
    // the lease lookup and the first-write claims need the lock.
    const protocol::KeyValues header(body);
    const auto id_text = header.get("lease");
    const auto status = header.get("status");
    if (!id_text || !status ||
        (*status != "ok" && *status != "error"))
        return protocol::Reply::error(
            "COMPLETE: malformed header (want lease=<id> "
            "status=ok|error)");
    Completion done;
    done.lease = batch::parseCount(*id_text);
    done.ok = *status == "ok";
    done.windows = unsigned(header.count("windows"));
    done.prefix = header.get("prefix").value_or("-");
    // Workers write "<spool>.lvp.<lease>" into the spool directory.
    // Only such a file, named for this lease, is the coordinator's to
    // validate, install or remove; a prefix= naming any other path
    // counts as no prefix, and that file is left alone.
    const std::filesystem::path named(done.prefix);
    const std::string own = ".lvp." + std::to_string(done.lease);
    const std::string file = named.filename().string();
    if (named.parent_path().string() != spool_dir_ ||
        file.size() < own.size() ||
        file.compare(file.size() - own.size(), own.size(), own) != 0)
        done.prefix = "-";
    done.est_cpi = header.real("est_cpi");
    done.ci_error = header.real("ci_error");
    done.mpki = header.real("mpki");
    done.mrc = header.get("mrc").value_or("");
    const std::size_t eol = body.find('\n');
    const std::string payload =
        eol == std::string::npos ? "" : body.substr(eol + 1);
    if (!done.ok) {
        done.error = payload;
    } else {
        // The records are self-delimiting; the lease says how many
        // there must be.
        try {
            std::istringstream is(payload, std::ios::binary);
            while (is.peek() != std::char_traits<char>::eof())
                done.results.push_back(
                    batch::readMethodResult(is, /*expect_end=*/false));
        } catch (const batch::BatchError &e) {
            done.malformed = e.what();
        }
    }

    std::unique_lock<std::mutex> lock(mutex_);
    sweepExpiredLocked(Clock::now());
    protocol::Reply reply;
    const auto it = leases_.find(done.lease);
    if (it == leases_.end()) {
        // A zombie so stale its lease record is gone. Ack: the
        // worker did nothing wrong, and the work was re-run anyway.
        // Its kind is unknown; windows= marks a stream handoff, acked
        // as discarded and counted like one of a known lease.
        const bool handoff = header.get("windows").has_value();
        if (handoff)
            ++fleet_.stream_handoffs;
        reply = completed(0, handoff ? 1 : 0, 0);
    } else {
        Lease lease = std::move(it->second);
        leases_.erase(it);
        reply = lease.kind == LeaseKind::Stream
                    ? completeStreamLocked(lease, done, lock)
                    : completeUnitLocked(lease, done, lock);
    }
    lock.unlock();
    // An installed prefix was renamed away; what is left is a
    // rejected, discarded or failed handoff's file, and must not leak.
    if (done.prefix != "-")
        std::remove(done.prefix.c_str());
    return reply;
}

protocol::Reply
Coordinator::completeUnitLocked(const Lease &lease, const Completion &done,
                                std::unique_lock<std::mutex> &lock)
{
    const std::vector<batch::CacheKey> &keys = lease.unit.keys;
    if (!lease.expired)
        --fleet_.units_leased;
    // Fail the unit's cells, except a key a concurrent COMPLETE has
    // claimed: that COMPLETE resolves it, or fails it if its store
    // fails, so the first write still wins.
    const auto failUnclaimed = [&](const std::string &error) {
        for (const auto &key : keys)
            if (!claimed_.count(key.hex()))
                finishJobsLocked(jobs_.resolve(key, false, error, false));
    };
    if (!done.ok) {
        // Execution failed on the worker. Only an *active* lease may
        // fail cells — a zombie's error must not poison a re-lease
        // that might still succeed.
        if (lease.expired) {
            fleet_.results_discarded += keys.size();
            return completed(0, keys.size(), 0);
        }
        failUnclaimed(done.error);
        return completed(0, 0, 0);
    }
    std::string malformed = done.malformed;
    if (malformed.empty() && done.results.size() != keys.size())
        malformed = std::to_string(done.results.size()) +
                    " records for " + std::to_string(keys.size()) +
                    " cells";
    if (!malformed.empty()) {
        // Nothing is stored: a malformed payload must not resolve a
        // part of the unit and then fail the rest.
        if (!lease.expired)
            failUnclaimed("worker returned a malformed result payload: " +
                          malformed);
        return protocol::Reply::error("COMPLETE: malformed payload: " +
                                      malformed);
    }

    // Claim each key still pending and not claimed by a concurrent
    // COMPLETE: the first write wins, and a later copy (a zombie's
    // duplicate) is acked and discarded.
    std::uint64_t discarded = 0;
    std::vector<std::size_t> claimed;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (!jobs_.pending(keys[i]) ||
            !claimed_.insert(keys[i].hex()).second) {
            ++discarded;
            ++fleet_.results_discarded;
            continue;
        }
        claimed.push_back(i);
    }

    // Store outside the lock, then resolve: stores precede resolve(),
    // which JobQueue's re-probe relies on. A failed store fails its
    // cells instead of leaving them pending with no lease.
    lock.unlock();
    std::vector<std::string> failures(claimed.size());
    for (std::size_t c = 0; c < claimed.size(); ++c) {
        try {
            cache_.store(keys[claimed[c]], done.results[claimed[c]]);
        } catch (const std::exception &e) {
            failures[c] = e.what();
        }
    }
    lock.lock();
    std::uint64_t stored = 0;
    for (std::size_t c = 0; c < claimed.size(); ++c) {
        const batch::CacheKey &key = keys[claimed[c]];
        claimed_.erase(key.hex());
        const bool ok = failures[c].empty();
        if (ok) {
            ++stored;
            ++fleet_.results_stored;
        }
        finishJobsLocked(jobs_.resolve(key, ok, failures[c], ok));
    }
    if (config_.verbose)
        std::fprintf(stderr,
                     "[coordinator] complete lease %llu: stored=%llu "
                     "discarded=%llu\n",
                     (unsigned long long)lease.id,
                     (unsigned long long)stored,
                     (unsigned long long)discarded);
    return completed(stored, discarded, 0);
}

protocol::Reply
Coordinator::completeStreamLocked(const Lease &lease,
                                  const Completion &done,
                                  std::unique_lock<std::mutex> &lock)
{
    ++fleet_.stream_handoffs;
    auto st = streams_.find(lease.stream);
    std::string invalid;
    if (done.ok && !lease.finish && st != streams_.end() &&
        !st->second.finished && !st->second.failed &&
        done.windows > st->second.committed && done.prefix != "-") {
        // Validate the prefix outside the lock against the stream's
        // own config and spec. The stream stays leased meanwhile, so
        // its windows are not leased twice.
        const core::DeloreanConfig config = st->second.config;
        lock.unlock();
        try {
            const auto warm = checkpoint::loadPrefixForRun(
                "stream:" + std::to_string(lease.stream), config,
                done.prefix);
            if (warm.size() != done.windows)
                throw checkpoint::CheckpointError(
                    "prefix file covers " + std::to_string(warm.size()) +
                    " windows, header claims " +
                    std::to_string(done.windows));
        } catch (const checkpoint::CheckpointError &e) {
            invalid = e.what();
        }
        lock.lock();
        st = streams_.find(lease.stream);
    }
    // Whatever this COMPLETE commits, the stream's next windows
    // (appended meanwhile, or the old range after a rejection) may be
    // leasable now.
    releaseStreamLocked(lease);

    if (st == streams_.end())
        return completed(0, 1, 0);
    FleetStream &stream = st->second;
    const auto ack = [&](std::uint64_t stored, std::uint64_t discarded) {
        return completed(stored, discarded, stream.committed);
    };
    const auto commit = [&] {
        fleet_.stream_windows += done.windows - stream.committed;
        stream.committed = done.windows;
        stream.est_cpi = done.est_cpi;
        stream.ci_error = done.ci_error;
        stream.mpki = done.mpki;
        stream.mrc = done.mrc;
    };

    if (!done.ok) {
        // Only an *active* lease may fail the stream — a zombie's
        // error must not poison a re-lease that might still succeed.
        if (!lease.expired && !stream.finished && !stream.failed) {
            stream.failed = true;
            stream.error = done.error.empty()
                               ? "worker reported an execution error"
                               : done.error;
            ++fleet_.streams_failed;
            done_cv_.notify_all();
            return ack(0, 0);
        }
        return ack(0, 1);
    }

    if (stream.finished || stream.failed)
        return ack(0, 1);

    const unsigned regions = stream.config.schedule.num_regions;
    if (lease.finish) {
        if (done.windows != regions)
            return protocol::Reply::error(
                "COMPLETE: finish handoff covers " +
                std::to_string(done.windows) + " of " +
                std::to_string(regions) + " windows");
        // A malformed result leaves the stream leasable; another
        // worker can finish.
        if (!done.malformed.empty() || done.results.size() != 1)
            return protocol::Reply::error(
                "COMPLETE: malformed result payload: " +
                (done.malformed.empty()
                     ? std::to_string(done.results.size()) +
                           " records for a finish lease"
                     : done.malformed));
        commit();
        stream.result = done.results.front();
        stream.finished = true;
        stream.windows = done.windows;
        ++fleet_.streams_finished;
        done_cv_.notify_all();
        if (config_.verbose)
            std::fprintf(stderr,
                         "[coordinator] stream %llu finished by "
                         "lease %llu\n",
                         (unsigned long long)lease.stream,
                         (unsigned long long)lease.id);
        return ack(1, 0);
    }

    // Prefix handoff: first write per window count wins. Accept any
    // strict extension of the committed prefix — even from an expired
    // lease: a window's warm state is a pure function of the trace
    // bytes and the config, so duplicates are bit-identical.
    if (done.windows <= stream.committed)
        return ack(0, 1);
    if (done.prefix == "-")
        return protocol::Reply::error(
            "COMPLETE: prefix handoff without this lease's prefix "
            "file in the spool directory");
    if (!invalid.empty()) // the stream stays leasable from the old prefix
        return protocol::Reply::error("COMPLETE: invalid prefix: " +
                                      invalid);
    const std::string dest = stream.spool->path() + ".lvp";
    if (std::rename(done.prefix.c_str(), dest.c_str()) != 0)
        return protocol::Reply::error(
            "COMPLETE: cannot install prefix file '" + done.prefix + "'");
    commit();
    stream.prefix_path = dest;
    if (config_.verbose)
        std::fprintf(stderr,
                     "[coordinator] stream %llu prefix -> %u windows "
                     "(lease %llu%s)\n",
                     (unsigned long long)lease.stream, done.windows,
                     (unsigned long long)lease.id,
                     lease.expired ? ", zombie won" : "");
    return ack(1, 0);
}

void
Coordinator::releaseStreamLocked(const Lease &lease)
{
    const auto st = streams_.find(lease.stream);
    if (st != streams_.end() && st->second.leased &&
        st->second.lease_id == lease.id) {
        st->second.leased = false;
        work_cv_.notify_all();
    }
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
        expireLocked(it->second);
    }
}

void
Coordinator::expireLocked(Lease &lease)
{
    lease.expired = true;
    ++fleet_.leases_expired;
    if (config_.verbose)
        std::fprintf(stderr,
                     "[coordinator] lease %llu expired; re-queueing\n",
                     (unsigned long long)lease.id);
    if (lease.kind == LeaseKind::Stream) {
        // The stream becomes leasable again from its committed prefix.
        releaseStreamLocked(lease);
    } else {
        --fleet_.units_leased;
        // Re-queue what is still unresolved.
        Unit retry = pendingPart(lease.unit);
        if (!retry.indices.empty())
            enqueueUnitLocked(std::move(retry));
    }
    // The record stays (bounded) so the zombie's eventual COMPLETE is
    // understood — and can even win the first write.
    retainExpiredLocked(lease.id);
}

void
Coordinator::returnUndelivered(std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = leases_.find(id);
    if (it != leases_.end() && !it->second.expired)
        expireLocked(it->second);
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
        // A claimed key resolves once its store finishes.
        if (!jobs_.pending(unit.keys[i]) ||
            (!claimed_.empty() && claimed_.count(unit.keys[i].hex())))
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
    std::error_code ec;
    std::filesystem::create_directories(spool_dir_, ec);
    if (ec)
        throw ServiceError("STREAM-OPEN: cannot create spool "
                           "directory '" + spool_dir_ + "': " +
                           ec.message());

    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t id = ++next_stream_;
    FleetStream stream;
    stream.id = id;
    stream.directives = body;
    stream.config = streamConfig(id, body);
    stream.spool = std::make_unique<TraceSpool>(
        id, spool_dir_ + "/" + std::to_string(id) + ".dlt",
        stream.config.schedule);
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
    batch::CacheKey key;
    try {
        key = streamContentKey(id, stream.directives,
                               stream.spool->path());
    } catch (const ServiceError &) {
        removeStreamArtifacts(stream);
        throw;
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
    const unsigned feedable = spool->feedable();
    const bool finish = closing && spool->complete();
    if (!finish && feedable <= committed)
        return std::nullopt;
    return std::make_pair(finish ? config.schedule.num_regions : feedable,
                          finish);
}

} // namespace delorean::service
