#include "service/server.hh"

#include <fcntl.h>
#include <poll.h>
#include <sys/file.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <utility>

#include "base/logging.hh"
#include "batch/error.hh"

namespace delorean::service
{

namespace
{

/**
 * Idle peers may not wedge the daemon, and a daemon writing to a
 * vanished client may not block forever either. Generous enough for
 * any honest client on the same host.
 */
constexpr int io_timeout_s = 30;

/** Accept-loop poll granularity: how fast stop() is observed. */
constexpr int accept_poll_ms = 100;

void
setIoTimeouts(int fd)
{
    struct timeval tv = {};
    tv.tv_sec = io_timeout_s;
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

sockaddr_un
socketAddress(const std::string &path)
{
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        throw ServiceError("socket path '" + path + "' exceeds the " +
                           std::to_string(sizeof(addr.sun_path) - 1) +
                           "-byte sun_path limit");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return addr;
}

} // namespace

int
connectToServer(const std::string &socket_path)
{
    const sockaddr_un addr = socketAddress(socket_path);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw ServiceError(std::string("socket(): ") +
                           std::strerror(errno));
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const int err = errno;
        ::close(fd);
        throw ServiceError("cannot connect to '" + socket_path +
                           "': " + std::strerror(err));
    }
    setIoTimeouts(fd);
    return fd;
}

SocketServer::SocketServer(std::string socket_path, Handler handler)
    : path_(std::move(socket_path)), handler_(std::move(handler))
{}

SocketServer::~SocketServer()
{
    stop();
}

void
SocketServer::start()
{
    if (listen_fd_ >= 0)
        throw ServiceError("server already started");

    // Frame writes to a hung-up peer must surface as EPIPE errors on
    // this thread, not kill the process.
    std::signal(SIGPIPE, SIG_IGN);

    const sockaddr_un addr = socketAddress(path_);

    // Exactly one server per socket path, race-free: a flock'd
    // lockfile held for the server's lifetime. A bare probe-then-
    // remove dance has a TOCTOU hole — two daemons probing the same
    // *stale* socket concurrently could both "take over", one of them
    // unlinking the other's freshly bound socket, and both would then
    // serve one spool. The lock serializes takeover, and while it is
    // held a socket file on disk is stale *by construction* (a live
    // server would hold the lock), so it can be removed unconditionally.
    // The lockfile itself is never unlinked (unlink+flock races);
    // it is empty litter next to the socket.
    const std::string lock_path = path_ + ".lock";
    lock_fd_ = ::open(lock_path.c_str(), O_RDWR | O_CREAT, 0644);
    if (lock_fd_ < 0)
        throw ServiceError("cannot open lockfile '" + lock_path +
                           "': " + std::strerror(errno));
    if (::flock(lock_fd_, LOCK_EX | LOCK_NB) != 0) {
        ::close(lock_fd_);
        lock_fd_ = -1;
        throw ServiceError("another server is already listening on '" +
                           path_ + "' (lock '" + lock_path + "' held)");
    }

    std::error_code ec;
    if (std::filesystem::exists(path_, ec)) {
        warn("removing stale socket file '%s'", path_.c_str());
        std::filesystem::remove(path_, ec);
    }

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        const int err = errno;
        releaseLock();
        throw ServiceError(std::string("socket(): ") +
                           std::strerror(err));
    }
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 16) != 0) {
        const int err = errno;
        ::close(listen_fd_);
        listen_fd_ = -1;
        releaseLock();
        throw ServiceError("cannot listen on '" + path_ +
                           "': " + std::strerror(err));
    }

    stopping_.store(false);
    thread_ = std::thread([this] { acceptLoop(); });
}

void
SocketServer::stop()
{
    if (listen_fd_ < 0)
        return;
    stopping_.store(true);
    // Wake the accept loop's poll now rather than at its next timeout.
    (void)::shutdown(listen_fd_, SHUT_RDWR);
    if (thread_.joinable())
        thread_.join();
    ::close(listen_fd_);
    listen_fd_ = -1;

    // Kick every live connection out of its blocking read so the
    // joins below return promptly, then join everything. Only the
    // read side is cut: a handler already answering (a WAIT that
    // shutdown released) still writes its whole reply.
    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        for (const auto &conn : connections_)
            if (!conn->finished.load())
                (void)::shutdown(conn->fd, SHUT_RD);
    }
    for (;;) {
        std::unique_ptr<Connection> victim;
        {
            std::lock_guard<std::mutex> lock(conn_mutex_);
            if (connections_.empty())
                break;
            victim = std::move(connections_.back());
            connections_.pop_back();
        }
        victim->thread.join();
        ::close(victim->fd);
    }

    std::error_code ec;
    std::filesystem::remove(path_, ec);
    releaseLock();
}

void
SocketServer::releaseLock()
{
    if (lock_fd_ < 0)
        return;
    ::close(lock_fd_); // closing drops the flock
    lock_fd_ = -1;
}

/** Join connection threads whose bodies already returned. */
void
SocketServer::reapFinished()
{
    std::vector<std::unique_ptr<Connection>> corpses;
    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        for (auto it = connections_.begin();
             it != connections_.end();) {
            if ((*it)->finished.load()) {
                corpses.push_back(std::move(*it));
                it = connections_.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (const auto &conn : corpses) {
        conn->thread.join();
        ::close(conn->fd);
    }
}

void
SocketServer::acceptLoop()
{
    while (!stopping_.load()) {
        struct pollfd pfd = {};
        pfd.fd = listen_fd_;
        pfd.events = POLLIN;
        const int ready = ::poll(&pfd, 1, accept_poll_ms);
        reapFinished();
        if (ready <= 0)
            continue; // timeout (recheck stopping_) or EINTR
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        setIoTimeouts(fd);

        std::lock_guard<std::mutex> lock(conn_mutex_);
        if (connections_.size() >= max_connections) {
            ::close(fd); // flood guard; honest clients retry
            continue;
        }
        auto conn = std::make_unique<Connection>();
        Connection *raw = conn.get();
        raw->fd = fd;
        const std::uint64_t client = next_client_.fetch_add(1);
        raw->thread = std::thread([this, raw, client] {
            serveConnection(raw->fd, client);
            raw->finished.store(true); // reaped by the accept loop / stop()
        });
        connections_.push_back(std::move(conn));
    }
}

void
SocketServer::serveConnection(int fd, std::uint64_t client)
{
    // One connection carries any number of request/reply exchanges;
    // a clean EOF between frames ends it. Stop serving mid-connection
    // once a handler (SHUTDOWN) flips stopping_.
    try {
        while (!stopping_.load()) {
            const auto request = protocol::readRequest(fd);
            if (!request)
                return;
            protocol::Reply reply;
            try {
                reply = handler_(*request, client);
            } catch (const ServiceError &e) {
                reply = protocol::Reply::error(e.what());
            } catch (const batch::BatchError &e) {
                reply = protocol::Reply::error(e.what());
            }
            try {
                protocol::writeReply(fd, reply);
            } catch (const ServiceError &) {
                if (reply.undelivered)
                    reply.undelivered();
                throw;
            }
            if (reply.after_send)
                reply.after_send();
        }
    } catch (const std::exception &e) {
        // Malformed frame, I/O timeout, or a peer that hung up
        // mid-frame: drop this connection, keep serving others.
        warn("service connection dropped: %s", e.what());
    }
}

} // namespace delorean::service
