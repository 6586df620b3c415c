#include "util/listener.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <utility>

namespace opt {

namespace {

/// One accept backlog for every daemon.
constexpr int kBacklog = 64;

Status SocketError(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

/// Binds `fd` to `addr` and starts listening; closes `fd` on failure.
Status BindAndListen(int fd, const void* addr, socklen_t addr_len,
                     const std::string& what) {
  if (::bind(fd, static_cast<const sockaddr*>(addr), addr_len) != 0 ||
      ::listen(fd, kBacklog) != 0) {
    const Status status = SocketError(what);
    ::close(fd);
    return status;
  }
  return Status::OK();
}

}  // namespace

Listener::Listener(std::function<void(int fd)> serve)
    : serve_(std::move(serve)) {}

Listener::~Listener() { Stop(); }

Status Listener::ListenTcp(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return SocketError("socket");
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  OPT_RETURN_IF_ERROR(BindAndListen(fd, &addr, sizeof(addr), "bind"));
  listen_fd_ = fd;
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return SocketError("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  return Status::OK();
}

Status Listener::ListenUnix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("unix socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return SocketError("socket");
  ::unlink(path.c_str());
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  OPT_RETURN_IF_ERROR(BindAndListen(fd, &addr, sizeof(addr), "bind " + path));
  listen_fd_ = fd;
  unix_path_ = path;
  return Status::OK();
}

Status Listener::Start() {
  if (listen_fd_ < 0) {
    return Status::InvalidArgument("Start() before a successful Listen*()");
  }
  if (accept_thread_.joinable()) {
    return Status::InvalidArgument("listener already started");
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Listener::AcceptLoop() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    const int accept_errno = errno;
    bool stopping;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping = stopping_;
      if (fd >= 0 && !stopping) {
        // Spawned under the lock, so the handler cannot retire its
        // entry before `thread` is assigned.
        auto connection = live_.emplace(live_.end());
        connection->fd = fd;
        connection->thread =
            std::thread([this, connection] { Serve(connection); });
      }
    }
    if (stopping) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0 && accept_errno != EINTR && accept_errno != ECONNABORTED) {
      // EMFILE/ENFILE/ENOBUFS: let handlers release descriptors rather
      // than spin on the pending connection.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

void Listener::Serve(std::list<Connection>::iterator connection) {
  serve_(connection->fd);
  std::thread previous;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Closed under the lock, so Stop() never shuts down a reused fd.
    ::close(connection->fd);
    previous = std::exchange(last_finished_, std::move(connection->thread));
    live_.erase(connection);
    if (live_.empty()) drained_cv_.notify_all();
  }
  // `previous` has already returned from serve, so this join is brief.
  if (previous.joinable()) previous.join();
}

void Listener::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  if (listen_fd_ >= 0) {
    // shutdown() unblocks accept(); close() alone does not on Linux.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::thread last;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (const Connection& connection : live_) {
      ::shutdown(connection.fd, SHUT_RDWR);
    }
    drained_cv_.wait(lock, [this] { return live_.empty(); });
    last = std::move(last_finished_);
  }
  // Every other handler was joined by its successor.
  if (last.joinable()) last.join();
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
}

}  // namespace opt
