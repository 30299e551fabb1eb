#include "core/parallel.hh"

namespace delorean::core
{

ThreadPool::ThreadPool(unsigned threads)
{
    threads = resolveThreads(threads);
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    ready_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push_back(std::move(task));
    }
    ready_.notify_one();
}

void
ThreadPool::post(const RunNext &run_next, unsigned copies)
{
    for (unsigned c = 0; c < copies; ++c)
        submit([run_next] {
            while (run_next()) {
            }
        });
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            ready_.wait(lock, [&] { return stop_ || !tasks_.empty(); });
            if (tasks_.empty())
                return; // stop requested and queue drained
            task = std::move(tasks_.front());
            tasks_.pop_front();
        }
        task();
    }
}

unsigned
ThreadPool::defaultThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

unsigned
resolveThreads(unsigned threads)
{
    return threads ? threads : ThreadPool::defaultThreads();
}

} // namespace delorean::core
