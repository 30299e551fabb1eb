#include "service/queue.hh"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <unordered_set>

#include "base/logging.hh"
#include "batch/error.hh"
#include "workload/endian.hh"

namespace delorean::service
{

namespace
{

/** One key of the counter line and the member it reports. */
struct CounterKey
{
    const char *key;
    std::uint64_t ServiceCounters::*jobs; //!< or null for a fleet key
    std::uint64_t FleetStats::*fleet;
};

/** The counter line's keys, in order (docs/service.md). */
constexpr CounterKey counter_keys[] = {
    {"jobs", &ServiceCounters::jobs_submitted, nullptr},
    {"completed", &ServiceCounters::jobs_completed, nullptr},
    {"job_failures", &ServiceCounters::job_failures, nullptr},
    {"cells_total", &ServiceCounters::cells_total, nullptr},
    {"cells_executed", &ServiceCounters::cells_executed, nullptr},
    {"cells_cached", &ServiceCounters::cells_cached, nullptr},
    {"cells_deduped", &ServiceCounters::cells_deduped, nullptr},
    {"cells_pending", &ServiceCounters::cells_pending, nullptr},
    {"parked", &ServiceCounters::parked, nullptr},
    {"units_ready", nullptr, &FleetStats::units_ready},
    {"units_leased", nullptr, &FleetStats::units_leased},
    {"leases_granted", nullptr, &FleetStats::leases_granted},
    {"leases_renewed", nullptr, &FleetStats::leases_renewed},
    {"leases_expired", nullptr, &FleetStats::leases_expired},
    {"results_stored", nullptr, &FleetStats::results_stored},
    {"results_discarded", nullptr, &FleetStats::results_discarded},
    {"quota_rejections", nullptr, &FleetStats::quota_rejections},
    {"streams", nullptr, &FleetStats::streams},
    {"stream_leases", nullptr, &FleetStats::stream_leases},
    {"stream_handoffs", nullptr, &FleetStats::stream_handoffs},
    {"stream_windows", nullptr, &FleetStats::stream_windows},
    {"streams_finished", nullptr, &FleetStats::streams_finished},
    {"streams_failed", nullptr, &FleetStats::streams_failed},
};

} // namespace

std::string
jobStatusLine(const JobStatus &status)
{
    std::ostringstream os;
    os << "job=" << status.id << " state=" << status.state()
       << " cells=" << status.cells << " done=" << status.done
       << " failed=" << status.failed
       << " priority=" << status.priority << " source="
       << (status.source == JobSource::Socket ? "socket" : "spool")
       << " name=" << status.name << "\n";
    if (!status.first_error.empty())
        os << "  error: " << status.first_error << "\n";
    return os.str();
}

JobStatus
parseJobStatusLine(const std::string &text)
{
    const std::size_t eol = text.find('\n');
    std::string line =
        eol == std::string::npos ? text : text.substr(0, eol);

    JobStatus status;
    // The name echoes a client-controlled string that may contain
    // spaces (or even key=value lookalikes), so split it off before
    // tokenizing: every token ahead of it is space-free, which makes
    // the *first* " name=" the genuine marker.
    const std::size_t name_at = line.find(" name=");
    if (name_at == std::string::npos)
        throw ServiceError("STATUS: no name= in job line '" + line +
                           "'");
    status.name = line.substr(name_at + 6);
    line.resize(name_at);

    const protocol::KeyValues kv(line);
    const auto state = kv.get("state");
    const auto required = {"job", "cells", "done"};
    if (!state || std::any_of(required.begin(), required.end(),
                              [&](const char *key) { return !kv.get(key); }))
        throw ServiceError("STATUS: malformed job line '" + line + "'");
    try {
        status.id = kv.count("job");
        status.cells = std::size_t(kv.count("cells"));
        status.done = std::size_t(kv.count("done"));
        status.failed = std::size_t(kv.count("failed"));
        status.priority = int(kv.count("priority"));
        const std::string source = kv.get("source").value_or("socket");
        if (source == "spool")
            status.source = JobSource::Spool;
        else if (source != "socket")
            throw batch::BatchError("unknown source '" + source + "'");
    } catch (const batch::BatchError &e) {
        throw ServiceError("STATUS: malformed job line '" + line +
                           "': " + e.what());
    }
    // The state token is redundant with the counters; insisting they
    // agree catches truncated or reassembled lines that still happen
    // to tokenize.
    if (*state != status.state())
        throw ServiceError("STATUS: job line state '" + *state +
                           "' contradicts its counters ('" +
                           status.state() + "')");

    if (eol != std::string::npos && eol + 1 < text.size()) {
        const std::string rest = text.substr(eol + 1);
        if (rest.rfind("  error: ", 0) != 0)
            throw ServiceError(
                "STATUS: unexpected job continuation '" + rest + "'");
        status.first_error = rest.substr(9);
        if (!status.first_error.empty() &&
            status.first_error.back() == '\n')
            status.first_error.pop_back();
    }
    return status;
}

std::string
counterLine(const ServiceCounters &jobs, const FleetStats &fleet)
{
    std::ostringstream os;
    const char *sep = "";
    for (const CounterKey &k : counter_keys) {
        os << sep << k.key << '='
           << (k.jobs ? jobs.*k.jobs : fleet.*k.fleet);
        sep = " ";
    }
    os << "\n";
    return os.str();
}

void
parseCounterLine(const std::string &line, ServiceCounters &jobs,
                 FleetStats &fleet)
{
    const protocol::KeyValues tokens(line);
    try {
        for (const auto &[key, value] : tokens.tokens())
            for (const CounterKey &k : counter_keys)
                if (key == k.key)
                    (k.jobs ? jobs.*k.jobs : fleet.*k.fleet) =
                        batch::parseCount(value);
    } catch (const batch::BatchError &e) {
        throw ServiceError("malformed counter line '" + line +
                           "': " + e.what());
    }
}

JobQueue::JobQueue(const batch::ResultCache &cache, CounterHook counters,
                   std::function<void()> shutdown)
    : cache_(cache), counter_hook_(std::move(counters)),
      shutdown_hook_(std::move(shutdown)), runs_(cache.stats())
{
    // Probe threads besides the caller: three measured best for a
    // 120-cell plan on four cores; fewer on smaller hosts.
    if (const unsigned workers =
            std::min(3u, core::ThreadPool::defaultThreads() - 1))
        probe_pool_ = std::make_unique<core::ThreadPool>(workers);
    flusher_ = std::thread([this] { flushLoop(); });
}

JobQueue::~JobQueue()
{
    flush();
}

JobQueue::Probe
JobQueue::probe(const batch::BatchPlan &plan)
{
    Probe out;
    out.resolved = resolved_.load();
    const auto &cells = plan.cells();
    const auto hit = [&](std::size_t i) -> char {
        return cache_.load(cells[i].key) ? 1 : 0;
    };
    out.hit = probe_pool_ ? core::parallelMap(*probe_pool_, cells.size(), hit)
                          : core::parallelMap(cells.size(), 1, hit);
    return out;
}

JobQueue::Submission
JobQueue::submission(const std::string &body)
{
    if (body.size() < 4)
        throw ServiceError("SUBMIT: missing priority prefix");
    // Client priorities stay in a band above the spool's.
    const std::uint32_t priority = std::min(
        workload::le::getU32(
            reinterpret_cast<const std::uint8_t *>(body.data())),
        1000u);
    std::string manifest = body.substr(4);
    batch::BatchPlan plan =
        batch::BatchPlan::fromManifestText(manifest, "submit");
    Probe verdict = probe(plan);
    return {int(priority), std::move(manifest), std::move(plan),
            std::move(verdict)};
}

protocol::Reply
JobQueue::submitted(std::uint64_t id, std::size_t cells)
{
    return protocol::Reply::success("job=" + std::to_string(id) +
                                    " cells=" + std::to_string(cells) +
                                    "\n");
}

JobQueue::Added
JobQueue::add(const batch::BatchPlan &plan, const Probe &probe,
              const JobOrigin &origin, const Admit &admit)
{
    const auto &cells = plan.cells();
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_)
        throw ServiceError("service is shutting down");

    // Classify every cell before registering anything, so a refused
    // job leaves nothing behind. A miss not pending now may have
    // resolved since the probe (its result is in the cache by then:
    // stores precede resolve()); probe it again unless nothing
    // resolved meanwhile.
    enum Fate : char
    {
        Cached,
        Attach,
        Fresh,
    };
    const bool stale = resolved_.load() != probe.resolved;
    std::vector<char> fates(cells.size(), Cached);
    std::vector<std::string> hexes(cells.size());
    std::vector<const batch::BatchCell *> fresh;
    std::unordered_set<std::string> fresh_hexes;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (probe.hit[i])
            continue;
        hexes[i] = cells[i].key.hex();
        if (pending_.count(hexes[i]) || fresh_hexes.count(hexes[i])) {
            fates[i] = Attach;
        } else if (!stale || !cache_.load(cells[i].key)) {
            fates[i] = Fresh;
            fresh_hexes.insert(hexes[i]);
            fresh.push_back(&cells[i]);
        }
    }
    const std::uint64_t id = next_job_;
    if (admit)
        admit(id, fresh); // may refuse: nothing is registered yet
    ++next_job_;

    JobRecord &job = jobs_[id];
    job.status.id = id;
    job.status.name = origin.name;
    job.status.source = origin.source;
    job.status.priority = origin.priority;
    job.status.cells = cells.size();
    job.spool_path = origin.spool_path;
    job.client = origin.client;
    job_order_.push_back(id);
    ++counters_.jobs_submitted;
    counters_.cells_total += cells.size();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (fates[i] == Cached) {
            ++job.status.done;
            ++job.cached;
            ++counters_.cells_cached;
            continue;
        }
        if (fates[i] == Attach)
            ++counters_.cells_deduped;
        pending_[hexes[i]].push_back(id);
    }

    Added added;
    added.id = id;
    if (job.status.complete()) {
        added.finished.push_back(finishLocked(job));
        evictFinishedLocked();
    }
    return added;
}

bool
JobQueue::pending(const batch::CacheKey &key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return pending_.count(key.hex()) != 0;
}

std::vector<FinishedJob>
JobQueue::resolve(const batch::CacheKey &key, bool ok,
                  const std::string &error, bool executed)
{
    std::vector<FinishedJob> finished;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = pending_.find(key.hex());
    if (it == pending_.end())
        return finished;
    const std::vector<std::uint64_t> attached = std::move(it->second);
    pending_.erase(it);
    ++resolved_;
    if (ok && executed)
        ++counters_.cells_executed;

    bool first = true;
    for (const std::uint64_t id : attached) {
        const auto jt = jobs_.find(id);
        if (jt == jobs_.end())
            continue;
        JobRecord &job = jt->second;
        ++job.status.done;
        if (!ok) {
            ++job.status.failed;
            if (job.status.first_error.empty())
                job.status.first_error = error;
        } else if (executed && first) {
            // Only the first attached job owns the execution; the
            // others got the cell cache-hit-equivalent.
            ++job.executed;
        } else {
            ++job.cached;
        }
        first = false;
        if (job.status.complete())
            finished.push_back(finishLocked(job));
    }
    evictFinishedLocked();
    return finished;
}

FinishedJob
JobQueue::finishLocked(JobRecord &job)
{
    ++counters_.jobs_completed;
    if (job.status.failed > 0)
        ++counters_.job_failures;
    // One job is one logical run against the shared cache, as for
    // batch_run; the writer thread folds it into stats.tsv.
    runs_.last_run_executed = unflushed_.last_run_executed = job.executed;
    runs_.last_run_cached = unflushed_.last_run_cached = job.cached;
    runs_.total_executed += job.executed;
    runs_.total_cached += job.cached;
    unflushed_.total_executed += job.executed;
    unflushed_.total_cached += job.cached;
    dirty_ = true;
    flush_cv_.notify_one();
    finished_order_.push_back(job.status.id);
    return job;
}

void
JobQueue::evictFinishedLocked()
{
    while (finished_order_.size() > max_finished_jobs) {
        jobs_.erase(finished_order_.front());
        finished_order_.pop_front();
    }
    // job_order_ keeps evicted ids until they dominate, then one
    // linear compaction — O(1) amortized, and jobs() never shows
    // evicted entries either way.
    if (job_order_.size() > 2 * jobs_.size() + 16) {
        std::deque<std::uint64_t> kept;
        for (const std::uint64_t id : job_order_)
            if (jobs_.count(id))
                kept.push_back(id);
        job_order_ = std::move(kept);
    }
}

void
JobQueue::settle(const std::vector<FinishedJob> &finished)
{
    if (finished.empty())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &job : finished) {
        const auto it = jobs_.find(job.status.id);
        if (it != jobs_.end())
            it->second.settled = true;
    }
    if (counters_.parked > 0)
        settled_cv_.notify_all();
}

std::optional<JobStatus>
JobQueue::waitJob(std::uint64_t id, unsigned timeout_ms)
{
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(timeout_ms);
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        const auto it = jobs_.find(id);
        if (it == jobs_.end())
            return std::nullopt;
        if (it->second.settled || released_ ||
            std::chrono::steady_clock::now() >= until)
            return it->second.status;
        ++counters_.parked;
        settled_cv_.wait_until(lock, until);
        --counters_.parked;
    }
}

void
JobQueue::releaseWaiters()
{
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    settled_cv_.notify_all();
}

void
JobQueue::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    released_ = true;
    settled_cv_.notify_all();
}

void
JobQueue::flushLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        flush_cv_.wait(lock, [&] { return dirty_ || flush_stop_; });
        if (!dirty_)
            return; // stopped with nothing left to write
        const batch::ResultCache::RunStats runs = unflushed_;
        unflushed_ = {};
        dirty_ = false;
        lock.unlock();
        try {
            cache_.recordRuns(runs);
        } catch (const std::exception &e) {
            warn("run counters not written to stats.tsv: %s", e.what());
        }
        lock.lock();
    }
}

void
JobQueue::flush()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        flush_stop_ = true;
        flush_cv_.notify_one();
    }
    if (flusher_.joinable())
        flusher_.join();
}

std::optional<JobStatus>
JobQueue::job(std::uint64_t id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return std::nullopt;
    return it->second.status;
}

std::vector<JobStatus>
JobQueue::jobs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<JobStatus> out;
    out.reserve(jobs_.size());
    for (const std::uint64_t id : job_order_) {
        const auto it = jobs_.find(id);
        if (it != jobs_.end()) // evicted ids may linger in the order
            out.push_back(it->second.status);
    }
    return out;
}

ServiceCounters
JobQueue::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ServiceCounters c = counters_;
    c.cells_pending = pending_.size();
    return c;
}

std::string
JobQueue::serverCounterLine() const
{
    ServiceCounters jobs = counters();
    FleetStats fleet;
    if (counter_hook_)
        counter_hook_(jobs, fleet);
    return counterLine(jobs, fleet);
}

protocol::Reply
JobQueue::handle(const protocol::Request &request)
{
    switch (request.op) {
      case protocol::Opcode::Status: {
        if (!request.body.empty()) {
            const auto status = job(batch::parseCount(request.body));
            if (!status)
                return protocol::Reply::error("unknown job " +
                                              request.body);
            return protocol::Reply::success(jobStatusLine(*status));
        }
        std::string text = serverCounterLine();
        for (const auto &status : jobs())
            text += jobStatusLine(status);
        return protocol::Reply::success(std::move(text));
      }
      case protocol::Opcode::Wait: {
        const protocol::WaitRequest wait =
            protocol::parseWaitRequest(request.body);
        const auto status = waitJob(wait.job, wait.timeout_ms);
        if (!status)
            return protocol::Reply::error("unknown job " +
                                          std::to_string(wait.job));
        return protocol::Reply::success(jobStatusLine(*status));
      }
      case protocol::Opcode::Result: {
        auto bytes =
            cache_.loadBytes(batch::CacheKey::fromHex(request.body));
        if (!bytes)
            return protocol::Reply::error("no cached result for key " +
                                          request.body);
        return protocol::Reply::success(std::move(*bytes));
      }
      case protocol::Opcode::Stats: {
        std::unique_lock<std::mutex> lock(mutex_);
        const batch::ResultCache::RunStats runs = runs_;
        lock.unlock();
        std::ostringstream os;
        os << "last_run_executed=" << runs.last_run_executed
           << " last_run_cached=" << runs.last_run_cached
           << " total_executed=" << runs.total_executed
           << " total_cached=" << runs.total_cached << "\n"
           << serverCounterLine();
        return protocol::Reply::success(os.str());
      }
      case protocol::Opcode::Shutdown: {
        // The drain starts only after "ok" is on the wire (see
        // Reply::after_send): the shutdown client always gets its
        // acknowledgment.
        protocol::Reply reply = protocol::Reply::success("ok\n");
        reply.after_send = shutdown_hook_;
        return reply;
      }
      case protocol::Opcode::ResultPart:
      case protocol::Opcode::ResultEnd:
        // readRequest() rejects these standalone; belt and braces.
        return protocol::Reply::error(
            "continuation frame outside a COMPLETE stream");
      default:
        return protocol::Reply::error("unhandled opcode");
    }
}

} // namespace delorean::service
