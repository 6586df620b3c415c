// Minimal plain-HTTP scrape endpoint for the Prometheus exposition
// text, served by a Listener (util/listener.h: one short-lived handler
// thread per connection): GET /metrics is answered with whatever the
// body callback renders at scrape time. Deliberately not a web server —
// no keep-alive, no TLS, no routing beyond /metrics — just enough for
// `curl` and a Prometheus scrape job against `opt_server --metrics-port`
// / `opt_router --metrics-port`.
#ifndef OPT_OBS_METRICS_HTTP_H_
#define OPT_OBS_METRICS_HTTP_H_

#include <cstdint>
#include <functional>
#include <string>

#include "util/listener.h"
#include "util/status.h"

namespace opt {

class MetricsHttpServer {
 public:
  /// `body` is invoked per scrape on the handler thread; it must be
  /// thread-safe (registry snapshots are).
  explicit MetricsHttpServer(std::function<std::string()> body);
  ~MetricsHttpServer();

  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned, see port()) and
  /// starts the accept loop.
  Status Start(uint16_t port);
  /// Actual bound port once Start succeeded.
  uint16_t port() const { return listener_.port(); }
  /// Stops accepting and joins every handler. Idempotent.
  void Stop();

 private:
  void HandleConnection(int fd);

  const std::function<std::string()> body_;
  Listener listener_;
};

}  // namespace opt

#endif  // OPT_OBS_METRICS_HTTP_H_
