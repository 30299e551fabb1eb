#include "service/queue.hh"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "batch/error.hh"
#include "service/protocol.hh"

namespace delorean::service
{

namespace
{

/**
 * Heap order: highest priority first, lowest sequence number (oldest)
 * within a priority. std::push_heap builds a max-heap on this "less
 * than" relation, so a is below b when b has strictly higher priority
 * or the same priority and an earlier arrival.
 */
bool
taskBelow(const std::shared_ptr<Task> &a, const std::shared_ptr<Task> &b)
{
    if (a->priority != b->priority)
        return a->priority < b->priority;
    return a->seq > b->seq;
}

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

    std::string state;
    bool have_job = false, have_state = false;
    bool have_cells = false, have_done = false;
    try {
        std::istringstream is(line);
        std::string token;
        while (is >> token) {
            if (token.rfind("job=", 0) == 0) {
                status.id = batch::parseCount(token.substr(4));
                have_job = true;
            } else if (token.rfind("state=", 0) == 0) {
                state = token.substr(6);
                have_state = true;
            } else if (token.rfind("cells=", 0) == 0) {
                status.cells =
                    std::size_t(batch::parseCount(token.substr(6)));
                have_cells = true;
            } else if (token.rfind("done=", 0) == 0) {
                status.done =
                    std::size_t(batch::parseCount(token.substr(5)));
                have_done = true;
            } else if (token.rfind("failed=", 0) == 0) {
                status.failed =
                    std::size_t(batch::parseCount(token.substr(7)));
            } else if (token.rfind("priority=", 0) == 0) {
                status.priority =
                    int(batch::parseCount(token.substr(9)));
            } else if (token.rfind("source=", 0) == 0) {
                const std::string v = token.substr(7);
                if (v == "socket")
                    status.source = JobSource::Socket;
                else if (v == "spool")
                    status.source = JobSource::Spool;
                else
                    throw batch::BatchError("unknown source '" + v +
                                            "'");
            }
        }
    } catch (const batch::BatchError &e) {
        throw ServiceError("STATUS: malformed job line '" + line +
                           "': " + e.what());
    }
    if (!have_job || !have_state || !have_cells || !have_done)
        throw ServiceError("STATUS: malformed job line '" + line +
                           "'");
    // The state token is redundant with the counters; insisting they
    // agree catches truncated or reassembled lines that still happen
    // to tokenize.
    if (state != status.state())
        throw ServiceError("STATUS: job line state '" + state +
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

std::uint64_t
JobQueue::addJob(const batch::BatchPlan &plan, const std::string &name,
                 JobSource source, int priority,
                 const std::string &spool_path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_)
        throw ServiceError("service is shutting down");

    const std::uint64_t id = next_job_++;
    JobRecord record;
    record.status.id = id;
    record.status.name = name;
    record.status.source = source;
    record.status.priority = priority;
    record.status.cells = plan.cells().size();
    record.spool_path = spool_path;
    jobs_.emplace(id, std::move(record));
    job_order_.push_back(id);
    ++counters_.jobs_submitted;

    std::size_t fresh = 0;
    for (const auto &cell : plan.cells()) {
        const std::string hex = cell.key.hex();
        const auto it = active_.find(hex);
        if (it != active_.end()) {
            // Same content already queued or running (possibly for
            // another submitter): one execution serves everyone.
            it->second->jobs.push_back(id);
            ++counters_.cells_deduped;
            continue;
        }
        auto task = std::make_shared<Task>();
        task->cell = cell;
        task->priority = priority;
        task->seq = next_seq_++;
        task->jobs.push_back(id);
        active_.emplace(hex, task);
        heap_.push_back(std::move(task));
        std::push_heap(heap_.begin(), heap_.end(), taskBelow);
        ++counters_.cells_enqueued;
        ++counters_.queue_depth;
        ++fresh;
    }
    if (fresh == 1)
        ready_.notify_one();
    else if (fresh > 1)
        ready_.notify_all();
    return id;
}

std::optional<Task>
JobQueue::pop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [&] { return closed_ || !heap_.empty(); });
    if (heap_.empty())
        return std::nullopt; // closed and drained (or abandoned)
    std::pop_heap(heap_.begin(), heap_.end(), taskBelow);
    auto task = std::move(heap_.back());
    heap_.pop_back();
    --counters_.queue_depth;
    ++counters_.running;
    // The task stays in active_ while running so late submitters still
    // attach to it; the worker's copy is only the cell to execute.
    return *task;
}

std::vector<FinishedJob>
JobQueue::complete(const Task &task, bool ok, const std::string &error,
                   bool executed)
{
    std::vector<FinishedJob> finished;
    std::lock_guard<std::mutex> lock(mutex_);
    --counters_.running;

    // Fan out to the *live* task: jobs may have attached between the
    // worker's pop() and now (the popped Task is a snapshot).
    const auto it = active_.find(task.cell.key.hex());
    const std::vector<std::uint64_t> attached =
        it != active_.end() ? it->second->jobs : task.jobs;
    if (it != active_.end())
        active_.erase(it);

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
        }
        // Only the first attached job "owns" the execution; everyone
        // else got the cell for free, cache-hit-equivalent.
        if (ok && executed && first)
            ++job.executed;
        else if (ok)
            ++job.cached;
        first = false;

        if (job.status.complete()) {
            ++counters_.jobs_completed;
            if (job.status.failed > 0)
                ++counters_.jobs_failed;
            finished.push_back({job.status, job.executed, job.cached,
                                job.spool_path});
            finished_order_.push_back(id);
        }
    }
    evictFinishedLocked();
    return finished;
}

void
JobQueue::settle(const std::vector<FinishedJob> &finished)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &job : finished) {
        const auto it = jobs_.find(job.status.id);
        if (it != jobs_.end())
            it->second.settled = true;
    }
    if (counters_.parked > 0)
        finished_.notify_all();
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
        finished_.wait_until(lock, until);
        --counters_.parked;
    }
}

void
JobQueue::releaseWaiters()
{
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    finished_.notify_all();
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
JobQueue::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    // Queued-but-unstarted tasks are abandoned: their spool manifests
    // stay put and are rescanned by the next serve. In-flight tasks
    // (popped, still in active_) drain through complete() as usual.
    counters_.queue_depth = 0;
    for (const auto &task : heap_)
        active_.erase(task->cell.key.hex());
    heap_.clear();
    ready_.notify_all();
    released_ = true;
    finished_.notify_all();
}

bool
JobQueue::closed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
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

JobQueue::Counters
JobQueue::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

} // namespace delorean::service
