// QueryRouter: a wire-protocol server that fans client queries out over
// the shards of one partitioned graph and merges the answers.
//
//   COUNT       — parallel fan-out; merged total = sum of per-shard
//                 counts minus the manifest's ghost triangles (exact).
//   LIST        — shards streamed in id order; each record (u, v, {w})
//                 is kept only if the shard owns u, so the merged
//                 stream is the exact global list, grouped by shard
//                 range (record order within a shard follows that
//                 server's own batch order).
//   ADD/REMOVE  — the batch splits by edge ownership (min endpoint);
//                 sub-batches commit per shard with PR 6 atomicity. A
//                 failed shard's sub-batch is retryable verbatim.
//   SUBSCRIBE   — polls per-shard snapshots and merges them under the
//                 router's virtual epoch (sum of restart-monotonic
//                 shard epochs).
//   STATS       — merged counters (summed) + histograms (count-weighted
//                 approximation) from every shard plus the router's own
//                 metrics. SHARD_STATS adds the per-shard breakdown.
//
// Degradation contract: when a shard is unreachable or fails, the
// router answers anyway and sets the shard's bit in `partial_shards`
// (mask of FAILED shards; 0 = complete) instead of failing the query —
// the PR 4 degraded-result contract extended across processes. Only
// when every shard fails does the client see an error.
//
// Transient connect failures during shard (re)starts are absorbed by a
// bounded retry/backoff loop reusing the storage layer's IoRetryPolicy
// shape (deterministic full jitter, exponential, capped), surfaced as
// router.retries / router.giveups metrics.
#ifndef OPT_SHARD_ROUTER_H_
#define OPT_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "service/client.h"
#include "service/wire.h"
#include "shard/shard_set.h"
#include "storage/async_io.h"
#include "util/listener.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace opt {

struct RouterOptions {
  /// Fan-out worker threads shared by all client connections.
  uint32_t workers = 8;
  /// Per-shard sub-request deadline; client deadlines tighten it.
  uint64_t shard_deadline_ms = 30000;
  /// Connect retry/backoff for shards that are restarting. Reuses the
  /// async-I/O retry policy shape (ReadPageWithRetry).
  IoRetryPolicy connect_retry{
      /*max_attempts=*/6,
      /*backoff_base_micros=*/2000,
      /*backoff_max_micros=*/200000,
      /*op_deadline_micros=*/0,
  };
  /// Idle connections kept per shard.
  uint32_t max_idle_conns_per_shard = 4;
  /// SUBSCRIBE merge poll cadence.
  uint64_t subscribe_poll_ms = 50;
};

class QueryRouter {
 public:
  /// `shards` must outlive the router and already be Spawned/Attached.
  QueryRouter(ShardSet* shards, RouterOptions options = {});
  ~QueryRouter();

  QueryRouter(const QueryRouter&) = delete;
  QueryRouter& operator=(const QueryRouter&) = delete;

  Status ListenTcp(uint16_t port);
  Status Start();
  void Stop();
  uint16_t bound_port() const { return listener_.port(); }

  /// Fleet view for the Prometheus scrape endpoint: count-weight-merged
  /// histograms pulled live from every reachable shard (same
  /// approximation as STATS) plus per-shard `opt_shard_up` health
  /// gauges. The caller (opt_router --metrics-port) concatenates this
  /// with the router's own registry exposition.
  std::string FleetPrometheus();

 private:
  struct PooledConn {
    OptClient client;
    uint64_t generation = 0;
  };

  /// One shard's slice of a fanned-out request.
  struct ShardOutcome {
    Status status = Status::OK();
    CountResult count;
    MutateResult mutate;
    SubscribeCountResult subscribe;
    StatsResult stats;
    TracePullResult trace;
    uint64_t micros = 0;
  };

  void HandleConnection(int fd);
  Status HandleCount(int fd, const WireMessage& message);
  Status HandleList(int fd, const WireMessage& message);
  Status HandleStats(int fd);
  Status HandleShardStats(int fd);
  Status HandleMutate(int fd, const WireMessage& message, bool add);
  Status HandleSubscribe(int fd, const WireMessage& message);
  /// Merges the router's own span ring with every shard's (TRACE_PULL
  /// fan-out): one section per process, shards relabelled "shard<i>",
  /// ready for AssembleTrace() on the client.
  Status HandleTracePull(int fd, const WireMessage& message);

  Status CheckGraph(const std::string& graph) const;

  /// Pops an idle connection (current generation only) or dials with
  /// the bounded retry/backoff loop.
  Result<PooledConn> AcquireConn(uint32_t shard);
  void ReleaseConn(uint32_t shard, PooledConn conn, bool reusable);

  /// Runs `fn(shard)` for every listed shard on the fan-out pool and
  /// waits; outcomes land in `outcomes[shard]`. Records per-shard
  /// latency and failure metrics.
  void FanOut(const std::vector<uint32_t>& targets,
              const std::function<void(uint32_t, ShardOutcome*)>& fn,
              std::vector<ShardOutcome>* outcomes);

  uint64_t EffectiveDeadline(uint64_t client_deadline_ms) const;

  ShardSet* const shards_;
  const RouterOptions options_;

  std::unique_ptr<ThreadPool> pool_;

  std::mutex conn_pool_mutex_;
  std::vector<std::vector<PooledConn>> idle_conns_;  // per shard

  // Per-shard router-side breakdown for SHARD_STATS.
  struct ShardMetrics {
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> failures{0};
    std::atomic<uint64_t> retries{0};
    HistogramMetric latency_micros;
  };
  std::vector<std::unique_ptr<ShardMetrics>> shard_metrics_;

  Listener listener_;
};

}  // namespace opt

#endif  // OPT_SHARD_ROUTER_H_
