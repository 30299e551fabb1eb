#include "service/worker.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <sstream>

#include "base/logging.hh"
#include "batch/error.hh"
#include "batch/plan.hh"
#include "batch/result_io.hh"
#include "batch/runner.hh"
#include "checkpoint/livepoint.hh"
#include "core/session.hh"
#include "service/client.hh"
#include "service/stream.hh"
#include "workload/trace_io.hh"

namespace delorean::service
{

namespace
{

/**
 * Renews one lease every third of its validity for as long as it
 * lives, so a unit or window range that outlasts the lease is not
 * re-leased under the worker. It borrows the pull thread's connection,
 * which is idle while the lease runs; the destructor stops and joins
 * it before that thread talks on the connection again. A killed
 * worker stops renewing, so its lease still expires.
 */
class LeaseKeeper
{
  public:
    LeaseKeeper(ServiceClient &client, std::uint64_t lease,
                unsigned deadline_ms, const std::atomic<bool> &killed)
        : thread_([this, &client, lease, &killed,
                   period = std::chrono::milliseconds(
                       std::max(1u, deadline_ms / 3))] {
              std::unique_lock<std::mutex> lock(mutex_);
              while (!cv_.wait_for(lock, period, [&] {
                  return done_ || killed.load();
              })) {
                  lock.unlock();
                  try {
                      (void)client.renew(lease);
                  } catch (const ServiceError &) {
                      return; // expired or gone: COMPLETE will tell
                  }
                  lock.lock();
              }
          })
    {}

    ~LeaseKeeper()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            done_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

    LeaseKeeper(const LeaseKeeper &) = delete;
    LeaseKeeper &operator=(const LeaseKeeper &) = delete;

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    bool done_ = false;
    std::thread thread_; //!< last: it uses the members above
};

} // namespace

WorkerLoop::WorkerLoop(WorkerConfig config)
    : config_(std::move(config)), cache_(config_.cache_dir)
{
    if (config_.coordinator.empty())
        throw ServiceError("worker: no coordinator socket path");
    if (config_.threads == 0)
        throw ServiceError("worker: thread count must be non-zero");
}

WorkerLoop::~WorkerLoop()
{
    stop();
}

void
WorkerLoop::start()
{
    if (started_.exchange(true))
        throw ServiceError("worker: already started");
    parked_.assign(config_.threads, nullptr);
    threads_.reserve(config_.threads);
    for (unsigned i = 0; i < config_.threads; ++i)
        threads_.emplace_back([this, i] { pullLoop(i); });
}

void
WorkerLoop::stop()
{
    {
        // A pull thread parked in LEASE would otherwise sit out the
        // coordinator's wait; shutdown(2) fails its read at once.
        // Threads running a unit are not parked and finish it.
        std::lock_guard<std::mutex> lock(park_mutex_);
        stop_.store(true);
        for (ServiceClient *client : parked_)
            if (client)
                client->interrupt();
    }
    for (auto &thread : threads_)
        if (thread.joinable())
            thread.join();
    threads_.clear();
}

void
WorkerLoop::kill()
{
    killed_.store(true);
    stop();
}

WorkerLoop::Counters
WorkerLoop::counters() const
{
    return {units_completed_.load(),       units_failed_.load(),
            cells_executed_.load(),        cells_from_cache_.load(),
            stream_leases_completed_.load(),
            stream_leases_failed_.load(),  windows_warmed_.load()};
}

ServiceClient::LeaseInfo
WorkerLoop::parkedLease(unsigned thread_index, ServiceClient &client,
                        const std::string &name)
{
    {
        std::lock_guard<std::mutex> lock(park_mutex_);
        if (stop_.load())
            return {};
        parked_[thread_index] = &client;
    }
    struct Unpark
    {
        WorkerLoop &loop;
        unsigned index;
        ~Unpark()
        {
            std::lock_guard<std::mutex> lock(loop.park_mutex_);
            loop.parked_[index] = nullptr;
        }
    } unpark{*this, thread_index};
    return client.lease(name, protocol::max_wait_ms);
}

void
WorkerLoop::pullLoop(unsigned thread_index)
{
    const std::string name =
        (config_.name.empty() ? "worker" : config_.name) + "/" +
        std::to_string(thread_index);
    std::unique_ptr<ServiceClient> client;
    unsigned reconnect_attempt = 0;

    while (!stop_.load()) {
        try {
            if (!client)
                client = std::make_unique<ServiceClient>(
                    config_.coordinator);
            // Parks on the coordinator until a unit is ready or a
            // stream window becomes leasable: no idle polling.
            const auto lease = parkedLease(thread_index, *client, name);
            reconnect_attempt = 0;
            if (lease.idle) {
                if (stop_.load())
                    return;
                // No work unit; a suspended stream may have windows
                // to feed (docs/service.md, "Stream migration").
                const auto stream = client->streamLease(name);
                if (!stream.idle)
                    runStreamLease(*client, stream, name);
                continue;
            }

            // Re-expand the manifest and verify the leased cells
            // against the coordinator's keys: expansion order is part
            // of the BatchPlan API, so a mismatch means a file-backed
            // workload changed since submit — results must not
            // publish under the coordinator's (now stale) keys.
            std::string failure;
            std::string payload;
            try {
                const auto plan = batch::BatchPlan::fromManifestText(
                    lease.manifest, "lease");
                std::vector<const batch::BatchCell *> unit;
                for (std::size_t i = 0; i < lease.cells.size(); ++i) {
                    const std::size_t index = lease.cells[i];
                    if (index >= plan.cells().size() ||
                        !(plan.cells()[index].key == lease.keys[i]))
                        throw batch::BatchError(
                            "leased cell " + std::to_string(index) +
                            ": key mismatch after re-expansion; plan "
                            "changed between submit and lease — "
                            "resubmit");
                    unit.push_back(&plan.cells()[index]);
                }
                // Renewed from here until the results are ready.
                const LeaseKeeper keeper(*client, lease.lease,
                                         lease.deadline_ms, killed_);

                std::vector<const batch::BatchCell *> misses;
                for (const auto *cell : unit)
                    if (!cache_.load(cell->key))
                        misses.push_back(cell);
                cells_from_cache_.fetch_add(unit.size() -
                                            misses.size());

                if (!misses.empty()) {
                    if (config_.verbose)
                        std::fprintf(stderr,
                                     "[%s] lease %llu: running %zu of "
                                     "%zu cells\n",
                                     name.c_str(),
                                     (unsigned long long)lease.lease,
                                     misses.size(), unit.size());
                    const auto results =
                        batch::BatchRunner::runUnit(misses);
                    // A file re-recorded while the unit ran must not
                    // publish the new bytes' result under the old key.
                    batch::RerecordGuard rerecorded;
                    for (const auto *cell : misses)
                        rerecorded.check(*cell);
                    for (std::size_t i = 0; i < misses.size(); ++i)
                        cache_.store(misses[i]->key, results[i]);
                    cells_executed_.fetch_add(misses.size());
                }

                // Serialize from the cache, not the in-memory
                // results: loadBytes is the canonical byte form, so
                // the coordinator's re-store is bit-identical.
                for (const auto *cell : unit) {
                    auto bytes = cache_.loadBytes(cell->key);
                    if (!bytes)
                        throw batch::BatchError(
                            "result for " + cell->workload +
                            " vanished from the local cache");
                    payload += *bytes;
                }
            } catch (const batch::BatchError &e) {
                failure = e.what();
            }
            // The keeper is gone: the connection is ours again.
            if (killed_.load())
                return; // crashed: never COMPLETE, lease expires
            if (failure.empty()) {
                (void)client->complete(lease.lease, payload);
                units_completed_.fetch_add(1);
            } else {
                (void)client->completeError(lease.lease, failure);
                units_failed_.fetch_add(1);
            }
        } catch (const ServiceError &e) {
            // Coordinator gone or mid-exchange failure: drop the
            // connection and reconnect with backoff, in short slices
            // so stop()/kill() joins promptly.
            client.reset();
            if (stop_.load())
                return;
            if (config_.verbose)
                std::fprintf(stderr, "[%s] %s\n", name.c_str(),
                             e.what());
            unsigned left = pollBackoffMs(
                reconnect_attempt++, ServiceClient::poll_base_ms,
                ServiceClient::poll_cap_ms, 0x776f726bull + thread_index);
            while (left > 0 && !stop_.load()) {
                const unsigned slice = std::min(left, 10u);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(slice));
                left -= slice;
            }
        }
    }
}

void
WorkerLoop::runStreamLease(ServiceClient &client,
                           const ServiceClient::StreamLeaseInfo &lease,
                           const std::string &name)
{
    try {
        const std::string spec =
            "stream:" + std::to_string(lease.stream);
        // Windows stay serial (host_threads 1, no executor): the
        // worker's other pull loops are parked in LEASE, not idle
        // here, and stream leases are already one per stream.
        const core::DeloreanConfig config =
            streamConfig(lease.stream, lease.directives);

        // Resume from the committed prefix instead of re-warming from
        // byte zero — the point of migration. Like a batch cell's
        // live-points, the prefix only saves time: a torn or corrupt
        // one re-warms from the spool (bit-identical results) rather
        // than failing the stream.
        std::vector<core::RegionWarm> warm;
        if (lease.prefix != "-") {
            try {
                warm = checkpoint::loadPrefixForRun(spec, config,
                                                    lease.prefix);
            } catch (const checkpoint::CheckpointError &e) {
                warn("stream %llu: %s; re-warming windows [0, %u) from "
                     "the spool",
                     (unsigned long long)lease.stream, e.what(),
                     lease.to);
            }
        }
        if (warm.size() > lease.from) {
            // A zombie's first-write-wins handoff extended the
            // committed prefix after this lease was granted. The
            // extra windows are still correct warm state (pure
            // function of trace bytes + config), but the lease
            // contract is [from, to) — truncate rather than fail a
            // healthy stream.
            warm.resize(lease.from);
        }
        if (!warm.empty() && warm.size() < lease.from)
            throw batch::BatchError(
                "committed prefix covers " +
                std::to_string(warm.size()) +
                " windows but the lease starts at window " +
                std::to_string(lease.from));

        if (config_.verbose)
            std::fprintf(stderr,
                         "[%s] stream lease %llu: stream %llu windows "
                         "[%u, %u)%s\n",
                         name.c_str(), (unsigned long long)lease.lease,
                         (unsigned long long)lease.stream, lease.from,
                         lease.to, lease.finish ? ", finish" : "");

        // The spool may still be growing; present exactly the records
        // the lease covers so every worker sees the same snapshot.
        workload::FileTrace master(lease.trace, false, lease.records);
        core::DeloreanSession session(config);
        std::string result_bytes;
        std::string path = "-";
        core::SessionEstimate est;
        {
            // Renewed until the handoff is ready, so a long warm
            // stretch is not re-leased under us.
            const LeaseKeeper keeper(client, lease.lease,
                                     lease.deadline_ms, killed_);
            if (!warm.empty())
                session.feedWarmWindows(master, warm);
            // A finish lease granted after every window was already
            // committed has nothing left to warm.
            const unsigned resumed = session.windowsFed();
            if (lease.to > resumed)
                session.feedWindows(master, lease.to - resumed);
            windows_warmed_.fetch_add(lease.to - resumed);

            est = session.estimate();
            if (lease.finish) {
                std::ostringstream os(std::ios::binary);
                batch::writeMethodResult(os, session.finish());
                result_bytes = os.str();
            } else {
                // Suspend: ship the fed prefix as a live-point file
                // next to the spool (shared filesystem); the
                // coordinator validates and installs it, or deletes
                // it on rejection.
                path = lease.trace + ".lvp." + std::to_string(lease.lease);
                checkpoint::writeLivePointFile(
                    path, checkpoint::sessionLivePoints(session, spec));
            }
        }
        if (killed_.load())
            return; // crashed: lease expires, stream re-leases
        (void)client.streamHandoff(lease.lease, lease.to, path,
                                   est.mean_cpi, est.ci_error, est.mpki,
                                   formatMrcPoints(est.mrc),
                                   result_bytes);
        stream_leases_completed_.fetch_add(1);
    } catch (const ServiceError &) {
        throw; // transport: reconnect in pullLoop
    } catch (const std::exception &e) {
        if (killed_.load())
            return;
        (void)client.streamHandoffError(lease.lease, e.what());
        stream_leases_failed_.fetch_add(1);
    }
}

} // namespace delorean::service
