#include "service/service.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <thread>

#include "base/logging.hh"
#include "batch/error.hh"
#include "batch/runner.hh"
#include "core/parallel.hh"
#include "service/server.hh"
#include "workload/trace_io.hh"

namespace delorean::service
{

BatchService::BatchService(ServiceConfig config)
    : config_(std::move(config)), cache_(config_.cache_dir),
      jobs_(cache_,
            [this](ServiceCounters &jobs, FleetStats &) {
                jobs.cells_executed += streams_closed_.load();
            },
            [this] { requestShutdown(); }),
      loops_(core::resolveThreads(config_.threads))
{
    if (config_.socket_path.empty())
        throw ServiceError("service: no socket path");
    if (config_.poll_ms == 0)
        throw ServiceError("service: poll period must be non-zero");
    if (!config_.spool_dir.empty())
        watcher_ = std::make_unique<ManifestWatcher>(config_.spool_dir);
}

class BatchService::Lender final : public core::Executor
{
  public:
    explicit Lender(BatchService &service) : service_(service) {}

    ~Lender()
    {
        if (!posted_)
            return;
        std::lock_guard<std::mutex> lock(service_.heap_mutex_);
        auto &offers = service_.offers_;
        offers.erase(std::remove_if(offers.begin(), offers.end(),
                                    [&](const Offer &offer) {
                                        return offer.lender == this;
                                    }),
                     offers.end());
    }

    Lender(const Lender &) = delete;
    Lender &operator=(const Lender &) = delete;

    /** Every other drain loop: the lender's own caller runs too. */
    unsigned helpers() const override { return service_.loops_ - 1; }

    void
    post(const RunNext &run_next, unsigned copies) override
    {
        posted_ = true;
        {
            std::lock_guard<std::mutex> lock(service_.heap_mutex_);
            for (unsigned c = 0; c < copies; ++c)
                service_.offers_.push_back({this, run_next});
        }
        service_.heap_cv_.notify_all();
    }

  private:
    BatchService &service_;
    bool posted_ = false; //!< only the posting thread reads or writes
};

class BatchService::BusyLoop
{
  public:
    explicit BusyLoop(BatchService &service) : service_(service)
    {
        const unsigned now = service_.busy_.fetch_add(1) + 1;
        unsigned peak = service_.peak_busy_.load();
        while (now > peak &&
               !service_.peak_busy_.compare_exchange_weak(peak, now)) {
        }
    }

    ~BusyLoop() { service_.busy_.fetch_sub(1); }

    BusyLoop(const BusyLoop &) = delete;
    BusyLoop &operator=(const BusyLoop &) = delete;

  private:
    BatchService &service_;
};

void
BatchService::requestShutdown()
{
    // Release parked WAITs before run() wakes and stops the server, so
    // each released WAIT answers on a connection that is still open.
    jobs_.releaseWaiters();
    {
        std::lock_guard<std::mutex> lock(shutdown_mutex_);
        shutdown_ = true;
    }
    shutdown_cv_.notify_all();
}

ServiceCounters
BatchService::counters() const
{
    ServiceCounters jobs = jobs_.counters();
    jobs.cells_executed += streams_closed_.load();
    return jobs;
}

void
BatchService::run()
{
    std::exception_ptr error;
    {
        // Workers first: each drain-loop thunk occupies one pool
        // worker until the heap closes, so sizes must match exactly.
        core::ThreadPool pool(loops_);
        for (unsigned i = 0; i < pool.size(); ++i)
            pool.submit([this] { drainLoop(); });

        std::thread watch_thread;
        if (watcher_) {
            watch_thread = std::thread([this] {
                std::unique_lock<std::mutex> lock(shutdown_mutex_);
                while (!shutdown_) {
                    lock.unlock();
                    for (auto &pickup : watcher_->scan()) {
                        try {
                            const std::uint64_t id = addJob(
                                pickup.plan, jobs_.probe(pickup.plan),
                                {pickup.name, JobSource::Spool,
                                 spool_priority, pickup.path, 0});
                            if (config_.verbose)
                                std::fprintf(
                                    stderr,
                                    "[service] spool pickup %s -> job "
                                    "%llu (%zu cells)\n",
                                    pickup.name.c_str(),
                                    (unsigned long long)id,
                                    pickup.plan.cells().size());
                        } catch (const ServiceError &) {
                            break; // closed under us: shutting down
                        }
                    }
                    lock.lock();
                    shutdown_cv_.wait_for(
                        lock, std::chrono::milliseconds(config_.poll_ms),
                        [&] { return shutdown_; });
                }
            });
        }

        // From here on the workers block on the heap and the watch
        // thread in its timed wait: every exit path — including a
        // failed server start (socket already taken) — must unblock
        // both before the pool/thread destructors join, or run()
        // deadlocks on its own stack unwind.
        try {
            SocketServer server(config_.socket_path,
                                [this](const protocol::Request &request,
                                       std::uint64_t) {
                                    return handle(request);
                                });
            server.start();
            if (config_.verbose)
                std::fprintf(stderr,
                             "[service] listening on %s (cache %s, %u "
                             "workers%s%s)\n",
                             config_.socket_path.c_str(),
                             cache_.dir().c_str(), pool.size(),
                             watcher_ ? ", spool " : "",
                             watcher_ ? watcher_->dir().c_str() : "");

            std::unique_lock<std::mutex> lock(shutdown_mutex_);
            shutdown_cv_.wait(lock, [&] { return shutdown_; });
            // ~SocketServer stops accepting and joins connections.
        } catch (...) {
            error = std::current_exception();
        }

        // Graceful drain: no new connections or pickups, abandon
        // queued cells, let in-flight cells finish and publish.
        requestShutdown();
        if (watch_thread.joinable())
            watch_thread.join();
        jobs_.close();
        {
            std::lock_guard<std::mutex> lock(heap_mutex_);
            heap_closed_ = true;
        }
        heap_cv_.notify_all();
        // ~ThreadPool joins the workers once their drain loops return.
    }
    jobs_.flush();
    if (error)
        std::rethrow_exception(error);
}

std::uint64_t
BatchService::addJob(const batch::BatchPlan &plan,
                     const JobQueue::Probe &probe, const JobOrigin &origin)
{
    const auto added = jobs_.add(
        plan, probe, origin,
        [&](std::uint64_t,
            const std::vector<const batch::BatchCell *> &fresh) {
            if (fresh.empty())
                return;
            // One re-record guard per job: each file is digested once
            // however many of the job's cells run.
            const auto guard = std::make_shared<batch::RerecordGuard>();
            std::lock_guard<std::mutex> lock(heap_mutex_);
            for (const batch::BatchCell *cell : fresh) {
                heap_.push_back({*cell, guard, origin.priority, next_seq_++});
                std::push_heap(heap_.begin(), heap_.end(),
                               heapBelow<Task>);
            }
            heap_cv_.notify_all();
        });
    finishJobs(added.finished);
    return added.id;
}

void
BatchService::drainLoop()
{
    for (;;) {
        Task task;
        core::Executor::RunNext offer;
        {
            std::unique_lock<std::mutex> lock(heap_mutex_);
            heap_cv_.wait(lock, [&] {
                return heap_closed_ || !heap_.empty() || !offers_.empty();
            });
            // Closed: queued-but-unstarted cells are abandoned, their
            // spool manifests stay put for the next serve.
            if (heap_closed_)
                return;
            if (heap_.empty()) {
                // Idle: lend this loop to a running fan-out.
                offer = std::move(offers_.front().run_next);
                offers_.pop_front();
            } else {
                std::pop_heap(heap_.begin(), heap_.end(),
                              heapBelow<Task>);
                task = std::move(heap_.back());
                heap_.pop_back();
            }
        }
        if (offer) {
            lend(offer);
            continue;
        }
        const batch::BatchCell &cell = task.cell;
        bool ok = true;
        std::string error;
        try {
            const BusyLoop busy(*this);
            if (config_.verbose)
                std::fprintf(stderr, "[service] run %s %s (%s/%s)\n",
                             cell.workload.c_str(), cell.method.c_str(),
                             cell.config_name.c_str(),
                             cell.schedule_name.c_str());
            sampling::MethodResult result;
            {
                // The lender withdraws its untaken offers here, so no
                // loop starts on this cell once its result is stored.
                Lender lender(*this);
                result = batch::BatchRunner::runCell(cell, &lender);
            }
            task.rerecorded->check(cell);
            cache_.store(cell.key, result);
        } catch (const std::exception &e) {
            ok = false;
            error = e.what();
            warn("service cell %s [%s] failed: %s",
                 cell.workload.c_str(), cell.method.c_str(), e.what());
        }
        finishJobs(jobs_.resolve(cell.key, ok, error, ok));
    }
}

void
BatchService::lend(const core::Executor::RunNext &run_next)
{
    // One window per turn, then back to the heap: a cell queued while
    // this loop helps waits for at most one window.
    for (;;) {
        {
            const BusyLoop busy(*this);
            if (!run_next())
                return;
        }
        windows_lent_.fetch_add(1);
        std::lock_guard<std::mutex> lock(heap_mutex_);
        if (heap_closed_ || !heap_.empty())
            return;
    }
}

void
BatchService::finishJobs(const std::vector<FinishedJob> &finished)
{
    for (const auto &job : finished) {
        if (config_.verbose)
            std::fprintf(stderr,
                         "[service] job %llu %s: executed=%llu "
                         "cached=%llu failed=%zu\n",
                         (unsigned long long)job.status.id,
                         job.status.state(),
                         (unsigned long long)job.executed,
                         (unsigned long long)job.cached,
                         job.status.failed);

        if (job.spool_path.empty())
            continue;
        if (job.status.failed > 0)
            watcher_->moveFailed(job.spool_path,
                                 job.status.first_error);
        else
            watcher_->moveDone(job.spool_path);
    }
    jobs_.settle(finished);
}

protocol::Reply
BatchService::handle(const protocol::Request &request)
{
    switch (request.op) {
      case protocol::Opcode::Submit:
        return handleSubmit(request.body);
      case protocol::Opcode::Status:
        if (request.body.rfind("stream=", 0) == 0)
            return handleStreamStatus(request.body);
        break;
      case protocol::Opcode::StreamOpen:
        return handleStreamOpen(request.body);
      case protocol::Opcode::StreamAppend:
        return handleStreamAppend(request.body);
      case protocol::Opcode::StreamClose:
        return handleStreamClose(request.body);
      case protocol::Opcode::Lease:
      case protocol::Opcode::Renew:
      case protocol::Opcode::Complete:
        // A worker pointed at a plain batch service, not a fleet
        // coordinator: tell it precisely what went wrong.
        return protocol::Reply::error(
            "this is a batch service socket, not a fleet coordinator; "
            "start one with 'batch_service coordinate'");
      default:
        break;
    }
    return jobs_.handle(request);
}

protocol::Reply
BatchService::handleSubmit(const std::string &body)
{
    const JobQueue::Submission submit = jobs_.submission(body);
    const std::uint64_t id =
        addJob(submit.plan, submit.probe,
               {"socket", JobSource::Socket, submit.priority, "", 0});
    if (config_.verbose)
        std::fprintf(stderr, "[service] submit -> job %llu (%zu cells)\n",
                     (unsigned long long)id, submit.plan.cells().size());
    return JobQueue::submitted(id, submit.plan.cells().size());
}

std::shared_ptr<BatchService::StreamEntry>
BatchService::findStream(std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(streams_mutex_);
    const auto it = streams_.find(id);
    if (it == streams_.end())
        throw ServiceError("unknown stream " + std::to_string(id));
    return it->second;
}

void
BatchService::eraseStream(std::uint64_t id)
{
    std::shared_ptr<StreamEntry> doomed;
    {
        std::lock_guard<std::mutex> lock(streams_mutex_);
        const auto it = streams_.find(id);
        if (it == streams_.end())
            return;
        doomed = std::move(it->second);
        streams_.erase(it);
    }
    // The entry (and its spool file) dies here — outside the map lock,
    // and after any concurrent holder drops its reference.
}

protocol::Reply
BatchService::handleStreamOpen(const std::string &body)
{
    const std::string dir = cache_.dir() + "/streams";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        throw ServiceError("STREAM-OPEN: cannot create spool "
                           "directory '" + dir + "': " + ec.message());

    std::uint64_t id;
    {
        std::lock_guard<std::mutex> lock(streams_mutex_);
        id = ++next_stream_;
    }
    // Construct outside the map lock: directive parsing and spool
    // creation must not stall unrelated streams.
    auto entry = std::make_shared<StreamEntry>(
        id, dir + "/" + std::to_string(id) + ".dlt", body);
    {
        std::lock_guard<std::mutex> lock(streams_mutex_);
        streams_.emplace(id, std::move(entry));
    }
    if (config_.verbose)
        std::fprintf(stderr, "[service] stream %llu opened\n",
                     (unsigned long long)id);
    return protocol::Reply::success("stream=" + std::to_string(id) +
                                    "\n");
}

protocol::Reply
BatchService::handleStreamAppend(const std::string &body)
{
    const std::size_t eol = body.find('\n');
    if (eol == std::string::npos)
        throw ServiceError(
            "STREAM-APPEND: missing stream=<id> header line");
    const std::uint64_t id =
        protocol::parseStreamId(body.substr(0, eol), "STREAM-APPEND");
    auto entry = findStream(id);
    TraceStream::AppendInfo info;
    try {
        std::lock_guard<std::mutex> lock(entry->mutex);
        Lender lender(*this);
        info = entry->stream.append(body.substr(eol + 1), lender);
    } catch (const ServiceError &) {
        // Malformed header, overflow, spool I/O: the stream's state
        // is unrecoverable. Drop it so its spool is reclaimed.
        eraseStream(id);
        throw;
    } catch (const workload::TraceError &e) {
        // Garbage record bytes surfaced from a window feed.
        eraseStream(id);
        throw ServiceError("stream " + std::to_string(id) + ": " +
                           e.what());
    }

    std::ostringstream os;
    os << "received=" << info.received << " records=" << info.records
       << " windows_fed=" << info.windows_fed << "\n";
    return protocol::Reply::success(os.str());
}

protocol::Reply
BatchService::handleStreamClose(const std::string &body)
{
    const std::uint64_t id = protocol::parseStreamId(body, "STREAM-CLOSE");
    auto entry = findStream(id);

    TraceStream::CloseInfo info;
    try {
        std::lock_guard<std::mutex> lock(entry->mutex);
        Lender lender(*this);
        info = entry->stream.close(lender);
    } catch (const workload::TraceError &e) {
        eraseStream(id);
        throw ServiceError("stream " + std::to_string(id) + ": " +
                           e.what());
    }
    // A ServiceError close (incomplete stream, livepoint write
    // failure) propagates WITHOUT erasing: the stream stays open for
    // the missing appends or a retried close.

    cache_.store(info.key, info.result);
    streams_closed_.fetch_add(1);
    eraseStream(id);
    if (config_.verbose)
        std::fprintf(stderr,
                     "[service] stream %llu closed -> key %s "
                     "(%u windows)\n",
                     (unsigned long long)id, info.key.hex().c_str(),
                     info.windows);
    return protocol::Reply::success(
        "key=" + info.key.hex() +
        " windows=" + std::to_string(info.windows) + "\n");
}

protocol::Reply
BatchService::handleStreamStatus(const std::string &body)
{
    const std::uint64_t id = protocol::parseStreamId(body, "STATUS");
    auto entry = findStream(id);
    std::lock_guard<std::mutex> lock(entry->mutex);
    return protocol::Reply::success(entry->stream.statusLine());
}

} // namespace delorean::service
