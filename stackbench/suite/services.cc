#include "suite/services.hh"

#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>

namespace stackbench
{

using namespace delorean;

namespace
{

/** Block until something accepts connections at @p socket. */
void
awaitSocket(const std::string &socket)
{
    const double deadline = nowSeconds() + 60.0;
    while (!service::ServiceClient::ping(socket)) {
        if (nowSeconds() > deadline)
            throw service::ServiceError("no server came up at " + socket);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

/** Thread body serving @p server until shutdown; a server that throws
 *  is reported, and awaitSocket() then times out. */
template <class Server>
void
serve(Server &server, const char *what)
{
    try {
        server.run();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "[stackbench] %s failed: %s\n", what, e.what());
    }
}

} // namespace

void
freshDir(const std::string &dir)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
}

Daemon::Daemon(const std::string &dir)
{
    std::filesystem::create_directories(dir);
    // Relative socket paths keep sun_path short wherever the checkout is.
    config_.socket_path = dir + "/d.sock";
    config_.cache_dir = dir + "/cache";
    config_.threads = 2;
    service_ = std::make_unique<service::BatchService>(config_);
    thread_ = std::thread([this] { serve(*service_, "batch service"); });
    try {
        awaitSocket(config_.socket_path);
    } catch (...) {
        service_->requestShutdown();
        thread_.join();
        throw;
    }
}

Daemon::~Daemon()
{
    service_->requestShutdown();
    thread_.join();
}

Fleet::Fleet(const std::string &dir, unsigned workers) : dir_(dir)
{
    std::filesystem::create_directories(dir);
    config_.socket_path = dir + "/c.sock";
    config_.cache_dir = dir + "/cache";
    coordinator_ = std::make_unique<service::Coordinator>(config_);
    thread_ = std::thread([this] { serve(*coordinator_, "coordinator"); });
    try {
        awaitSocket(config_.socket_path);
        startWorkers(workers);
    } catch (...) {
        stopWorkers();
        coordinator_->requestShutdown();
        thread_.join();
        throw;
    }
}

Fleet::~Fleet()
{
    stopWorkers();
    coordinator_->requestShutdown();
    thread_.join();
}

void
Fleet::startWorkers(unsigned n)
{
    for (unsigned i = 0; i < n; ++i) {
        service::WorkerConfig worker;
        worker.name = "w";
        worker.name += std::to_string(workers_.size());
        worker.coordinator = config_.socket_path;
        worker.cache_dir = dir_ + "/" + worker.name;
        worker.threads = 1;
        workers_.push_back(std::make_unique<service::WorkerLoop>(worker));
        workers_.back()->start();
    }
}

void
Fleet::stopWorkers()
{
    for (auto &worker : workers_)
        worker->stop();
    workers_.clear();
}

RequestResult
request(service::ServiceClient &client, const std::string &manifest,
        Spans &spans, std::uint64_t request_id)
{
    Spans::Scope span(spans, "request", request_id);
    RequestResult out;
    const double start = nowSeconds();
    service::ServiceClient::SubmitInfo info;
    {
        Spans::Scope s(spans, "client.submit");
        info = client.submit(manifest);
    }
    out.submit_s = nowSeconds() - start;
    // One span for the whole wait: a span per poll would be most of a
    // traced run's spans and memory.
    Spans::Scope wait(spans, "client.poll_until_done");
    for (;;) {
        // Back to back while the job could be a cache hit (hits of
        // both servers take 1-2.5 ms), then every 100 us: a spinning
        // client would steal the CPU the workers need, and the gap is
        // under 0.2% of an uncached cell.
        if (nowSeconds() - start > 5e-3)
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        const double poll = nowSeconds();
        out.status = client.jobStatus(info.job);
        out.poll_s.add(nowSeconds() - poll);
        if (out.status.complete())
            break;
    }
    out.seconds = nowSeconds() - start;
    return out;
}

} // namespace stackbench
