/**
 * @file
 * SocketServer: the batch service's Unix-domain listener.
 *
 * Owns the socket file: start() takes an exclusive flock on
 * "<path>.lock" (held for the server's lifetime, so a second daemon on
 * the same path is refused race-free and a socket file found on disk
 * is stale by construction and removed), binds, and accepts
 * connections on a dedicated thread, speaking the DLRNSRV1 frame
 * protocol (service/protocol.hh) and delegating each request to the
 * caller-supplied handler.
 *
 * Each accepted connection gets its own thread: clients legitimately
 * hold a connection open across many exchanges (a status-polling loop,
 * an interactive session), and one of those must not starve a second
 * submitter. Handlers stay cheap by contract — submit parses and
 * probes a manifest, result streams one cached record — simulation
 * work never runs here, it goes to the server's executor. A stuck
 * or malicious peer cannot wedge the daemon: per-connection
 * receive/send timeouts drop idle peers, malformed frames drop the
 * connection with a warn(), and the frame layer bounds body
 * allocations.
 *
 * stop() is graceful and idempotent: the listener stops accepting,
 * every open connection's read side is shutdown(2) so blocked reads
 * return immediately while a reply being written still completes,
 * connection threads are joined, and the socket file is unlinked.
 */

#ifndef DELOREAN_SERVICE_SERVER_HH
#define DELOREAN_SERVICE_SERVER_HH

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/protocol.hh"

namespace delorean::service
{

class SocketServer
{
  public:
    /**
     * Produce the reply for one request. Invoked concurrently from
     * per-connection threads (up to max_connections at once), so it
     * must be thread-safe; it must not block on simulation work.
     * Thrown ServiceError/BatchError become error replies; anything
     * else drops the connection. @p client identifies the connection
     * the request arrived on (monotonic per accept, never reused) —
     * the coordinator keys its per-client SUBMIT quotas on it.
     */
    using Handler = std::function<protocol::Reply(
        const protocol::Request &request, std::uint64_t client)>;

    /**
     * Hard cap on simultaneously served connections; accepts beyond
     * it are closed immediately (the client sees EOF and can retry).
     * Far above anything an honest workload produces — this bounds a
     * connect-flood's thread count, nothing else.
     */
    static constexpr std::size_t max_connections = 64;

    /**
     * @param socket_path where to bind (unlinked on stop).
     * @param handler     request dispatcher.
     */
    SocketServer(std::string socket_path, Handler handler);
    ~SocketServer();

    SocketServer(const SocketServer &) = delete;
    SocketServer &operator=(const SocketServer &) = delete;

    /**
     * Lock, bind, listen and launch the accept thread. Throws
     * ServiceError if the path is too long for sun_path, another
     * server holds the path's lock, or bind/listen fail.
     */
    void start();

    /** Stop accepting, join the thread, unlink the socket file. */
    void stop();

    const std::string &path() const { return path_; }

  private:
    void acceptLoop();
    void serveConnection(int fd, std::uint64_t client);
    void reapFinished();

    /** Release the takeover lock (no-op if not held). */
    void releaseLock();

    std::string path_;
    Handler handler_;
    int listen_fd_ = -1;
    int lock_fd_ = -1; //!< flock'd "<path>.lock", held while serving
    std::atomic<bool> stopping_{false};
    std::atomic<std::uint64_t> next_client_{1};
    std::thread thread_;

    /** Live connections (list guarded by conn_mutex_). */
    struct Connection
    {
        int fd = -1;
        std::thread thread;
        /** Thread body done; atomic because the connection thread
         *  sets it while the accept thread polls it. */
        std::atomic<bool> finished{false};
    };
    std::mutex conn_mutex_;
    std::vector<std::unique_ptr<Connection>> connections_;
};

/**
 * Connect to the server at @p socket_path with send/receive timeouts.
 * @return the connected fd (caller closes). Throws ServiceError if
 * nothing is listening. Shared by ServiceClient and the stale-socket
 * probe.
 */
int connectToServer(const std::string &socket_path);

} // namespace delorean::service

#endif // DELOREAN_SERVICE_SERVER_HH
