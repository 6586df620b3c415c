// OptServer: socket front end over QueryScheduler + GraphRegistry.
//
// Accepts connections on a TCP port or Unix-domain socket and speaks
// the framed protocol in service/wire.h. Connections are handled one
// thread each; queries on a connection are serviced sequentially
// (pipelining across connections is what the scheduler parallelizes).
// LIST results stream back as kListBatch frames while the query runs,
// so arbitrarily large outputs never buffer server-side.
#ifndef OPT_SERVICE_SERVER_H_
#define OPT_SERVICE_SERVER_H_

#include <condition_variable>
#include <deque>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "service/query_scheduler.h"
#include "service/wire.h"
#include "util/listener.h"
#include "util/status.h"

namespace opt {

class OptServer {
 public:
  /// Both pointers must outlive the server. Graph loading over the wire
  /// can be disabled for deployments that pre-pin their graphs, and
  /// streaming mutations (ADD_EDGES / REMOVE_EDGES) for read-only ones.
  OptServer(QueryScheduler* scheduler, bool allow_load_graph = true,
            bool allow_mutations = true);
  ~OptServer();

  OptServer(const OptServer&) = delete;
  OptServer& operator=(const OptServer&) = delete;

  /// Binds a TCP listener on 127.0.0.1:`port`. Port 0 picks a free
  /// port; `bound_port()` reports the actual one.
  Status ListenTcp(uint16_t port);

  /// Binds a Unix-domain stream socket at `path` (unlinked first).
  Status ListenUnix(const std::string& path);

  /// Starts the accept loop. Call after a successful Listen*.
  Status Start();

  /// Stops accepting, closes live connections, joins all threads.
  /// Idempotent; also run by the destructor.
  void Stop();

  uint16_t bound_port() const { return listener_.port(); }

  /// Appends one JSON line per PROFILE query to `path` (opt_server
  /// --profile-out). Empty disables. Safe to call before Start().
  void SetProfileOutput(const std::string& path);

 private:
  /// Serves one connection's requests in order until EOF or a failed
  /// write; the listener closes the fd afterwards.
  void HandleConnection(int fd);
  Status HandleCount(int fd, const WireMessage& message);
  Status HandleList(int fd, const WireMessage& message);
  Status HandleProfile(int fd, const WireMessage& message);
  Status HandleStats(int fd);
  Status HandleLoadGraph(int fd, const WireMessage& message);
  Status HandleMutate(int fd, const WireMessage& message, DeltaKind kind);
  Status HandleSubscribe(int fd, const WireMessage& message);
  /// Drains (or peeks) the process-wide span ring into one
  /// ProcessTrace section. Routers pull these from every shard and
  /// assemble the fleet-wide trace; see AssembleTrace().
  Status HandleTracePull(int fd, const WireMessage& message);
  /// Queues a background COUNT to learn `graph`'s base triangle count
  /// (deduplicated while one is already queued or running). SUBSCRIBE
  /// never pays a full count's latency on the connection thread — it
  /// replies exact_known=0 until a count has recorded the base.
  void SchedulePrime(const std::string& graph);
  void PrimeLoop();
  void AppendProfileLine(const ProfileResult& profile,
                         const std::string& graph);
  std::string RenderStats() const;
  /// Legacy text plus the live metrics registry (histogram quantiles and
  /// counters) for the extended STATS reply.
  StatsResult BuildStats() const;

  QueryScheduler* const scheduler_;
  const bool allow_load_graph_;
  const bool allow_mutations_;

  std::mutex profile_out_mutex_;
  std::string profile_out_path_;

  // Background base-count primer (one thread, started with the server).
  std::mutex prime_mutex_;
  bool stopping_ = false;  // guarded by prime_mutex_
  std::condition_variable prime_cv_;
  std::deque<std::string> prime_queue_;
  std::set<std::string> prime_pending_;  // queued or running
  std::thread prime_thread_;

  Listener listener_;
};

}  // namespace opt

#endif  // OPT_SERVICE_SERVER_H_
