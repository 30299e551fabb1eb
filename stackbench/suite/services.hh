/**
 * @file
 * The service layers run in the benchmark's own process: a BatchService
 * daemon, or a Coordinator with in-process WorkerLoops, each serving on
 * a Unix socket the client thread drives through ServiceClient.
 */

#ifndef STACKBENCH_SUITE_SERVICES_HH
#define STACKBENCH_SUITE_SERVICES_HH

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hh"
#include "service/coordinator.hh"
#include "service/service.hh"
#include "service/worker.hh"
#include "suite/spans.hh"
#include "suite/stats.hh"

namespace stackbench
{

/**
 * A BatchService with two threads, its other settings at the CLI
 * defaults, serving `<dir>/d.sock` from `<dir>/cache`.
 */
class Daemon
{
  public:
    explicit Daemon(const std::string &dir);
    ~Daemon(); //!< graceful shutdown, then join

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    const std::string &socket() const { return config_.socket_path; }

  private:
    delorean::service::ServiceConfig config_;
    std::unique_ptr<delorean::service::BatchService> service_;
    std::thread thread_;
};

/**
 * A Coordinator serving `<dir>/c.sock` from `<dir>/cache`, plus
 * WorkerLoops with one pull thread each, their own cache dirs and the
 * default idle backoff.
 */
class Fleet
{
  public:
    Fleet(const std::string &dir, unsigned workers);
    ~Fleet(); //!< stop workers, then shut the coordinator down

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    const std::string &socket() const { return config_.socket_path; }

    /** Start @p n more workers (the constructor starts the first ones). */
    void startWorkers(unsigned n);

  private:
    /** Gracefully stop every worker (in-flight units complete). */
    void stopWorkers();

    std::string dir_;
    delorean::service::CoordinatorConfig config_;
    std::unique_ptr<delorean::service::Coordinator> coordinator_;
    std::thread thread_;
    std::vector<std::unique_ptr<delorean::service::WorkerLoop>> workers_;
};

/** What one SUBMIT→done request observed. */
struct RequestResult
{
    delorean::service::JobStatus status;
    double seconds = 0.0;    //!< SUBMIT sent → done status received
    double submit_s = 0.0;   //!< the SUBMIT round trip alone
    Samples poll_s;          //!< each jobStatus round trip
};

/**
 * Submit @p manifest and poll jobStatus until the job is complete:
 * back to back for the first 5 ms, then every 100 us. Not waitForJob,
 * whose 25 ms to 1 s backoff would quantize the latency. Throws
 * ServiceError.
 */
RequestResult request(delorean::service::ServiceClient &client,
                      const std::string &manifest, Spans &spans,
                      std::uint64_t request_id);

/** Create @p dir (and parents), removing anything already there. */
void freshDir(const std::string &dir);

} // namespace stackbench

#endif // STACKBENCH_SUITE_SERVICES_HH
