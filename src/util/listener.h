// Listener: the one socket-serving core shared by opt_server, opt_router
// and the /metrics endpoint. It binds a TCP (127.0.0.1) or Unix-domain
// stream socket, runs one accept thread, and serves every accepted
// connection on its own thread by calling the owner's `serve(fd)`.
//
// Contract (DESIGN.md §6):
//   - `serve` never closes its fd. When it returns (EOF, error or stop)
//     the listener closes the fd exactly once and the thread is joined
//     by the next handler to finish (or by Stop()); the accept loop
//     never joins anything.
//   - Transient accept errors (EINTR, ECONNABORTED, EMFILE, ENFILE, ...)
//     never end the accept loop; only Stop() does.
//   - Stop() retires the listening socket, shuts down every live
//     connection so blocked reads return, joins every handler, closes
//     their fds and unlinks the Unix path.
#ifndef OPT_UTIL_LISTENER_H_
#define OPT_UTIL_LISTENER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "util/status.h"

namespace opt {

class Listener {
 public:
  /// `serve` runs once per accepted connection, on that connection's
  /// thread, and must be safe to call concurrently.
  explicit Listener(std::function<void(int fd)> serve);
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds 127.0.0.1:`port`. Port 0 picks a free port; see port().
  Status ListenTcp(uint16_t port);
  /// Binds a Unix-domain stream socket at `path` (unlinked first).
  Status ListenUnix(const std::string& path);

  /// Starts the accept thread. Call once, after a successful Listen*.
  Status Start();

  /// Idempotent; also run by the destructor.
  void Stop();

  /// Actual bound TCP port (0 for a Unix socket or before ListenTcp).
  uint16_t port() const { return port_; }

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
  };

  void AcceptLoop();
  void Serve(std::list<Connection>::iterator connection);

  const std::function<void(int fd)> serve_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::string unix_path_;
  std::thread accept_thread_;

  std::mutex mutex_;
  bool stopping_ = false;
  std::condition_variable drained_cv_;
  std::list<Connection> live_;
  /// The most recently finished handler. Each handler joins its
  /// predecessor on the way out, so at most one exited thread is ever
  /// unjoined; Stop() joins the last.
  std::thread last_finished_;
};

}  // namespace opt

#endif  // OPT_UTIL_LISTENER_H_
