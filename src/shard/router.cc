#include "shard/router.h"

#include "service/query_scheduler.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <sstream>
#include <thread>
#include <utility>

#include "util/logging.h"
#include "util/trace.h"

namespace opt {

namespace {

/// `[trace=<hex>] ` prefix for Warn lines tied to a traced request
/// (mirrors the scheduler's tag so one grep follows a request across
/// both processes); empty for untraced requests.
std::string TraceTag(uint64_t trace_id) {
  if (trace_id == 0) return std::string();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "[trace=%016llx] ",
                static_cast<unsigned long long>(trace_id));
  return std::string(buf);
}

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Deterministic full jitter over [backoff/2, backoff], same scheme as
/// the async-I/O engine's ReadPageWithRetry (keyed by shard + attempt
/// instead of pid + attempt).
uint32_t JitteredBackoff(uint32_t backoff, uint32_t shard,
                         uint32_t attempt) {
  uint64_t h = (static_cast<uint64_t>(shard) << 32) | attempt;
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  const uint32_t half = backoff / 2;
  return half + static_cast<uint32_t>(h % (half + 1));
}

/// Count-weighted merge of per-shard histogram summaries. Quantiles of
/// quantiles are an approximation (documented in DESIGN.md §11); count,
/// min, max, and mean are exact.
StatsHistogram MergeHistograms(const std::string& name,
                               const std::vector<StatsHistogram>& parts) {
  StatsHistogram merged;
  merged.name = name;
  double mean_weighted = 0, p50_weighted = 0, p95_weighted = 0,
         p99_weighted = 0;
  for (const StatsHistogram& part : parts) {
    if (part.count == 0) continue;
    if (merged.count == 0) {
      merged.min = part.min;
      merged.max = part.max;
    } else {
      merged.min = std::min(merged.min, part.min);
      merged.max = std::max(merged.max, part.max);
    }
    merged.count += part.count;
    const double w = static_cast<double>(part.count);
    mean_weighted += w * part.mean;
    p50_weighted += w * part.p50;
    p95_weighted += w * part.p95;
    p99_weighted += w * part.p99;
  }
  if (merged.count > 0) {
    const double total = static_cast<double>(merged.count);
    merged.mean = mean_weighted / total;
    merged.p50 = p50_weighted / total;
    merged.p95 = p95_weighted / total;
    merged.p99 = p99_weighted / total;
  }
  return merged;
}

}  // namespace

QueryRouter::QueryRouter(ShardSet* shards, RouterOptions options)
    : shards_(shards),
      options_(std::move(options)),
      listener_([this](int fd) { HandleConnection(fd); }) {
  pool_ = std::make_unique<ThreadPool>(std::max(1u, options_.workers));
  idle_conns_.resize(shards_->num_shards());
  shard_metrics_.reserve(shards_->num_shards());
  for (uint32_t i = 0; i < shards_->num_shards(); ++i) {
    shard_metrics_.push_back(std::make_unique<ShardMetrics>());
  }
}

QueryRouter::~QueryRouter() { Stop(); }

Status QueryRouter::ListenTcp(uint16_t port) {
  return listener_.ListenTcp(port);
}

Status QueryRouter::Start() { return listener_.Start(); }

void QueryRouter::Stop() {
  listener_.Stop();
  std::lock_guard<std::mutex> lock(conn_pool_mutex_);
  for (auto& per_shard : idle_conns_) per_shard.clear();
}

void QueryRouter::HandleConnection(int fd) {
  for (;;) {
    WireMessage message;
    Status status = ReadMessage(fd, &message);
    if (!status.ok()) return;
    switch (message.type) {
      case MessageType::kCountRequest:
        status = HandleCount(fd, message);
        break;
      case MessageType::kListRequest:
        status = HandleList(fd, message);
        break;
      case MessageType::kStatsRequest:
        status = HandleStats(fd);
        break;
      case MessageType::kShardStatsRequest:
        status = HandleShardStats(fd);
        break;
      case MessageType::kAddEdgesRequest:
        status = HandleMutate(fd, message, /*add=*/true);
        break;
      case MessageType::kRemoveEdgesRequest:
        status = HandleMutate(fd, message, /*add=*/false);
        break;
      case MessageType::kSubscribeCountRequest:
        status = HandleSubscribe(fd, message);
        break;
      case MessageType::kTracePullRequest:
        status = HandleTracePull(fd, message);
        break;
      case MessageType::kProfileRequest:
        status = SendError(
            fd, Status::NotSupported(
                    "PROFILE does not aggregate across shards; profile a "
                    "shard server directly"));
        break;
      case MessageType::kLoadGraphRequest:
        status = SendError(
            fd, Status::NotSupported(
                    "the router serves one partitioned graph; repartition "
                    "and restart to change it"));
        break;
      default:
        status = SendError(
            fd, Status::InvalidArgument(
                    "unexpected message type " +
                    std::to_string(static_cast<int>(message.type))));
        break;
    }
    if (!status.ok()) return;
  }
}

Status QueryRouter::CheckGraph(const std::string& graph) const {
  if (graph != shards_->manifest().graph) {
    return Status::NotFound("router serves graph '" +
                            shards_->manifest().graph + "', not '" + graph +
                            "'");
  }
  return Status::OK();
}

Result<QueryRouter::PooledConn> QueryRouter::AcquireConn(uint32_t shard) {
  {
    std::lock_guard<std::mutex> lock(conn_pool_mutex_);
    auto& idle = idle_conns_[shard];
    const uint64_t current = shards_->generation(shard);
    while (!idle.empty()) {
      PooledConn conn = std::move(idle.back());
      idle.pop_back();
      // Sockets to a previous incarnation are dead on arrival.
      if (conn.generation == current) return conn;
    }
  }
  static Counter* retries = Metrics().GetCounter("router.retries");
  static Counter* giveups = Metrics().GetCounter("router.giveups");
  const IoRetryPolicy& retry = options_.connect_retry;
  uint32_t backoff = retry.backoff_base_micros;
  Status last = Status::Unavailable("no connect attempt made");
  for (uint32_t attempt = 1; attempt <= std::max(1u, retry.max_attempts);
       ++attempt) {
    if (attempt > 1) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          JitteredBackoff(backoff, shard, attempt)));
      backoff = std::min(retry.backoff_max_micros, backoff * 2);
      retries->Increment();
      shard_metrics_[shard]->retries.fetch_add(1,
                                               std::memory_order_relaxed);
    }
    const ShardEndpoint endpoint = shards_->endpoint(shard);
    PooledConn conn;
    conn.generation = shards_->generation(shard);
    last = conn.client.ConnectTcp(endpoint.host, endpoint.port);
    if (last.ok()) {
      (void)conn.client.SetRecvTimeoutMillis(options_.shard_deadline_ms +
                                             2000);
      return conn;
    }
  }
  giveups->Increment();
  return Status::Unavailable("shard " + std::to_string(shard) +
                             " unreachable: " + last.message());
}

void QueryRouter::ReleaseConn(uint32_t shard, PooledConn conn,
                              bool reusable) {
  if (!reusable || !conn.client.connected()) return;
  std::lock_guard<std::mutex> lock(conn_pool_mutex_);
  auto& idle = idle_conns_[shard];
  if (idle.size() < options_.max_idle_conns_per_shard &&
      conn.generation == shards_->generation(shard)) {
    idle.push_back(std::move(conn));
  }
}

void QueryRouter::FanOut(
    const std::vector<uint32_t>& targets,
    const std::function<void(uint32_t, ShardOutcome*)>& fn,
    std::vector<ShardOutcome>* outcomes) {
  outcomes->clear();
  outcomes->resize(shards_->num_shards());
  std::mutex done_mutex;
  std::condition_variable done_cv;
  size_t pending = targets.size();
  for (uint32_t shard : targets) {
    pool_->Submit([this, shard, &fn, outcomes, &done_mutex, &done_cv,
                   &pending] {
      ShardOutcome* outcome = &(*outcomes)[shard];
      const uint64_t start = NowMicros();
      fn(shard, outcome);
      outcome->micros = NowMicros() - start;
      ShardMetrics& metrics = *shard_metrics_[shard];
      metrics.requests.fetch_add(1, std::memory_order_relaxed);
      metrics.latency_micros.Record(outcome->micros);
      if (!outcome->status.ok()) {
        metrics.failures.fetch_add(1, std::memory_order_relaxed);
      }
      std::lock_guard<std::mutex> lock(done_mutex);
      if (--pending == 0) done_cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&pending] { return pending == 0; });
}

uint64_t QueryRouter::EffectiveDeadline(uint64_t client_deadline_ms) const {
  if (client_deadline_ms == 0) return options_.shard_deadline_ms;
  return std::min(client_deadline_ms, options_.shard_deadline_ms);
}

Status QueryRouter::HandleCount(int fd, const WireMessage& message) {
  QueryRequest request;
  Status status = DecodeQueryRequest(message.payload, &request);
  if (!status.ok()) return SendError(fd, status);
  if (Status check = CheckGraph(request.graph); !check.ok()) {
    return SendError(fd, check);
  }
  Metrics().GetCounter("router.requests")->Increment();
  Metrics().GetCounter("router.fanouts")->Increment();
  TraceContextScope remote({request.trace_id, request.parent_span_id});
  TraceSpan router_span("router", "router.count",
                        CurrentTraceRecorder() != nullptr
                            ? "\"graph\":\"" + JsonEscape(request.graph) +
                                  "\""
                            : std::string());
  // Fan-out workers are other threads: hand them the router span's
  // context explicitly so each per-shard rpc span parents under it (and
  // the shard-side spans, via the client's auto-attached context, under
  // the rpc span — one tree across processes).
  const TraceContext fan_ctx{router_span.trace_id(), router_span.span_id()};

  QueryRequest sub = request;
  sub.deadline_millis = EffectiveDeadline(request.deadline_millis);
  ClientQueryOptions sub_options;
  sub_options.memory_pages = sub.memory_pages;
  sub_options.num_threads = sub.num_threads;
  sub_options.deadline_millis = sub.deadline_millis;

  std::vector<uint32_t> targets(shards_->num_shards());
  for (uint32_t i = 0; i < targets.size(); ++i) targets[i] = i;
  std::vector<ShardOutcome> outcomes;
  FanOut(
      targets,
      [this, &sub, &sub_options, fan_ctx](uint32_t shard,
                                          ShardOutcome* outcome) {
        TraceContextScope scope(fan_ctx);
        TraceSpan rpc_span("router", "rpc.count",
                           "\"shard\":" + std::to_string(shard));
        auto conn = AcquireConn(shard);
        if (!conn.ok()) {
          outcome->status = conn.status();
          return;
        }
        auto result = conn->client.Count(sub.graph, sub_options);
        outcome->status = result.status();
        if (result.ok()) outcome->count = *result;
        ReleaseConn(shard, std::move(*conn), result.status().ok());
      },
      &outcomes);

  const ShardManifest& manifest = shards_->manifest();
  CountResult merged;
  merged.source = static_cast<uint8_t>(ResultSource::kExecuted);
  merged.num_shards = shards_->num_shards();
  uint32_t failed = 0;
  for (uint32_t i = 0; i < outcomes.size(); ++i) {
    const ShardOutcome& outcome = outcomes[i];
    if (!outcome.status.ok()) {
      merged.partial_shards |= (1ull << i);
      ++failed;
      continue;
    }
    // Each shard's count includes its ghost triangles; subtract them
    // per contributing shard so partial answers stay internally
    // consistent.
    merged.triangles +=
        outcome.count.triangles - manifest.shards[i].ghost_triangles;
    merged.pool_hits += outcome.count.pool_hits;
    merged.pages_read += outcome.count.pages_read;
    merged.iterations += outcome.count.iterations;
    merged.seconds = std::max(merged.seconds, outcome.count.seconds);
  }
  if (failed == outcomes.size()) {
    Metrics().GetCounter("router.failures")->Increment();
    const std::string first =
        outcomes.empty() ? std::string("none") : outcomes[0].status.message();
    OPT_LOG(Warn) << TraceTag(router_span.trace_id())
                  << "COUNT failed on every shard; first: " << first;
    return SendError(
        fd, Status::Unavailable("all shards failed; first: " + first));
  }
  if (merged.partial_shards != 0) {
    Metrics().GetCounter("router.partial")->Increment();
    OPT_LOG(Warn) << TraceTag(router_span.trace_id())
                  << "partial COUNT: failed shard mask=0x" << std::hex
                  << merged.partial_shards << std::dec;
  }
  return WriteMessage(fd, MessageType::kCountResult,
                      EncodeCountResult(merged));
}

Status QueryRouter::HandleList(int fd, const WireMessage& message) {
  QueryRequest request;
  Status status = DecodeQueryRequest(message.payload, &request);
  if (!status.ok()) return SendError(fd, status);
  if (Status check = CheckGraph(request.graph); !check.ok()) {
    return SendError(fd, check);
  }
  Metrics().GetCounter("router.requests")->Increment();
  TraceContextScope remote({request.trace_id, request.parent_span_id});
  TraceSpan router_span("router", "router.list",
                        CurrentTraceRecorder() != nullptr
                            ? "\"graph\":\"" + JsonEscape(request.graph) +
                                  "\""
                            : std::string());

  ClientQueryOptions sub_options;
  sub_options.memory_pages = request.memory_pages;
  sub_options.num_threads = request.num_threads;
  sub_options.deadline_millis = EffectiveDeadline(request.deadline_millis);

  const ShardManifest& manifest = shards_->manifest();
  ListEnd merged;
  merged.num_shards = shards_->num_shards();
  Status forward_status = Status::OK();

  // Shards stream sequentially in id order: shard i owns the contiguous
  // vertex range [lo_i, hi_i), so the concatenation of the
  // ownership-filtered streams is the exact global list, grouped by
  // shard range.
  for (uint32_t i = 0; i < shards_->num_shards() && forward_status.ok();
       ++i) {
    const ShardInfo& info = manifest.shards[i];
    const uint64_t start = NowMicros();
    TraceSpan rpc_span("router", "rpc.list",
                       "\"shard\":" + std::to_string(i));
    auto conn = AcquireConn(i);
    Status shard_status;
    if (!conn.ok()) {
      shard_status = conn.status();
    } else {
      auto end = conn->client.List(
          request.graph,
          [&](const ListBatch& batch) {
            ListBatch kept;
            for (const ListBatch::Record& record : batch.records) {
              // Keep a record only if this shard owns its root vertex;
              // ghosts (u past range_hi) drop here.
              if (record.u < info.range_lo || record.u >= info.range_hi) {
                continue;
              }
              merged.triangles += record.ws.size();
              kept.records.push_back(record);
            }
            if (!kept.records.empty() && forward_status.ok()) {
              forward_status = WriteMessage(fd, MessageType::kListBatch,
                                            EncodeListBatch(kept));
            }
          },
          sub_options);
      shard_status = end.status();
      if (end.ok()) merged.seconds += end->seconds;
      ReleaseConn(i, std::move(*conn), end.status().ok());
    }
    ShardMetrics& metrics = *shard_metrics_[i];
    metrics.requests.fetch_add(1, std::memory_order_relaxed);
    metrics.latency_micros.Record(NowMicros() - start);
    if (!shard_status.ok()) {
      metrics.failures.fetch_add(1, std::memory_order_relaxed);
      merged.partial_shards |= (1ull << i);
    }
  }
  if (!forward_status.ok()) return forward_status;  // client went away
  if (merged.partial_shards != 0) {
    Metrics().GetCounter("router.partial")->Increment();
    if (merged.partial_shards ==
        (shards_->num_shards() == 64
             ? ~0ull
             : (1ull << shards_->num_shards()) - 1)) {
      Metrics().GetCounter("router.failures")->Increment();
      return SendError(fd,
                       Status::Unavailable("all shards failed the LIST"));
    }
  }
  return WriteMessage(fd, MessageType::kListEnd, EncodeListEnd(merged));
}

Status QueryRouter::HandleMutate(int fd, const WireMessage& message,
                                 bool add) {
  MutateRequest request;
  Status status = DecodeMutateRequest(message.payload, &request);
  if (!status.ok()) return SendError(fd, status);
  if (Status check = CheckGraph(request.graph); !check.ok()) {
    return SendError(fd, check);
  }
  Metrics().GetCounter("router.requests")->Increment();
  TraceContextScope remote({request.trace_id, request.parent_span_id});
  TraceSpan router_span("router",
                        add ? "router.delta.add" : "router.delta.remove",
                        CurrentTraceRecorder() != nullptr
                            ? "\"graph\":\"" + JsonEscape(request.graph) +
                                  "\""
                            : std::string());
  const TraceContext fan_ctx{router_span.trace_id(), router_span.span_id()};

  const ShardManifest& manifest = shards_->manifest();
  std::vector<std::vector<std::pair<VertexId, VertexId>>> batches(
      shards_->num_shards());
  for (const auto& edge : request.edges) {
    batches[manifest.OwnerOfEdge(edge.first, edge.second)].push_back(edge);
  }
  std::vector<uint32_t> targets;
  for (uint32_t i = 0; i < batches.size(); ++i) {
    if (!batches[i].empty()) targets.push_back(i);
  }
  if (targets.empty()) {
    return SendError(fd, Status::InvalidArgument("empty edge batch"));
  }

  std::vector<ShardOutcome> outcomes;
  FanOut(
      targets,
      [this, &request, &batches, add, fan_ctx](uint32_t shard,
                                               ShardOutcome* outcome) {
        TraceContextScope scope(fan_ctx);
        TraceSpan rpc_span("router", add ? "rpc.delta.add"
                                         : "rpc.delta.remove",
                           "\"shard\":" + std::to_string(shard));
        auto conn = AcquireConn(shard);
        if (!conn.ok()) {
          outcome->status = conn.status();
          return;
        }
        auto result = add ? conn->client.AddEdges(request.graph,
                                                  batches[shard])
                          : conn->client.RemoveEdges(request.graph,
                                                     batches[shard]);
        outcome->status = result.status();
        if (result.ok()) outcome->mutate = *result;
        // Server-side rejections (InvalidArgument) keep the connection
        // usable; only transport errors burn it.
        ReleaseConn(shard, std::move(*conn),
                    result.status().code() != StatusCode::kIOError);
      },
      &outcomes);

  MutateResult merged;
  merged.num_shards = shards_->num_shards();
  merged.approx_valid = 1;
  uint32_t succeeded = 0;
  Status first_failure = Status::OK();
  for (uint32_t shard : targets) {
    const ShardOutcome& outcome = outcomes[shard];
    if (!outcome.status.ok()) {
      merged.partial_shards |= (1ull << shard);
      if (first_failure.ok()) first_failure = outcome.status;
      merged.approx_valid = 0;
      continue;
    }
    ++succeeded;
    shards_->NoteEpoch(shard, outcome.mutate.epoch);
    merged.batch_triangle_delta += outcome.mutate.batch_triangle_delta;
    merged.total_triangle_delta += outcome.mutate.total_triangle_delta;
    merged.edges_applied += outcome.mutate.edges_applied;
    merged.seconds = std::max(merged.seconds, outcome.mutate.seconds);
    if (outcome.mutate.approx_valid == 0) merged.approx_valid = 0;
    merged.approx_triangles += outcome.mutate.approx_triangles;
  }
  if (succeeded == 0) {
    Metrics().GetCounter("router.failures")->Increment();
    OPT_LOG(Warn) << TraceTag(router_span.trace_id())
                  << "mutation failed on every targeted shard: "
                  << first_failure.ToString();
    return SendError(fd, first_failure);
  }
  // The merged epoch is the router's virtual epoch: the sum of
  // restart-monotonic shard epochs, so it advances on every commit.
  merged.epoch = shards_->virtual_epoch();
  if (merged.partial_shards != 0) {
    Metrics().GetCounter("router.partial")->Increment();
  }
  return WriteMessage(fd, MessageType::kMutateResult,
                      EncodeMutateResult(merged));
}

Status QueryRouter::HandleSubscribe(int fd, const WireMessage& message) {
  SubscribeCountRequest request;
  Status status = DecodeSubscribeCountRequest(message.payload, &request);
  if (!status.ok()) return SendError(fd, status);
  if (Status check = CheckGraph(request.graph); !check.ok()) {
    return SendError(fd, check);
  }
  Metrics().GetCounter("router.requests")->Increment();
  TraceContextScope remote({request.trace_id, request.parent_span_id});
  TraceSpan router_span("router", "router.subscribe",
                        CurrentTraceRecorder() != nullptr
                            ? "\"graph\":\"" + JsonEscape(request.graph) +
                                  "\""
                            : std::string());
  const TraceContext fan_ctx{router_span.trace_id(), router_span.span_id()};

  const ShardManifest& manifest = shards_->manifest();
  std::vector<uint32_t> targets(shards_->num_shards());
  for (uint32_t i = 0; i < targets.size(); ++i) targets[i] = i;

  const uint64_t deadline =
      NowMicros() + request.timeout_millis * 1000;
  SubscribeCountResult merged;
  for (;;) {
    // One immediate snapshot per shard per poll round; the router, not
    // the shard, owns the long-poll budget so a slow shard cannot pin
    // its pooled connection for the whole timeout.
    std::vector<ShardOutcome> outcomes;
    FanOut(targets,
           [this, &request, fan_ctx](uint32_t shard,
                                     ShardOutcome* outcome) {
             TraceContextScope scope(fan_ctx);
             TraceSpan rpc_span("router", "rpc.subscribe",
                                "\"shard\":" + std::to_string(shard));
             auto conn = AcquireConn(shard);
             if (!conn.ok()) {
               outcome->status = conn.status();
               return;
             }
             auto snap = conn->client.SubscribeCount(request.graph,
                                                     /*after_epoch=*/0,
                                                     /*timeout_millis=*/0);
             outcome->status = snap.status();
             if (snap.ok()) outcome->subscribe = *snap;
             ReleaseConn(shard, std::move(*conn), snap.status().ok());
           },
           &outcomes);

    merged = SubscribeCountResult{};
    merged.num_shards = shards_->num_shards();
    merged.exact_known = 1;
    merged.approx_valid = 1;
    uint32_t succeeded = 0;
    for (uint32_t i = 0; i < outcomes.size(); ++i) {
      const ShardOutcome& outcome = outcomes[i];
      if (!outcome.status.ok()) {
        merged.partial_shards |= (1ull << i);
        merged.exact_known = 0;
        merged.approx_valid = 0;
        continue;
      }
      ++succeeded;
      shards_->NoteEpoch(i, outcome.subscribe.epoch);
      if (outcome.subscribe.exact_known) {
        merged.triangles += outcome.subscribe.triangles -
                            manifest.shards[i].ghost_triangles;
      } else {
        merged.exact_known = 0;
      }
      merged.delta_triangles += outcome.subscribe.delta_triangles;
      merged.edges_added += outcome.subscribe.edges_added;
      merged.edges_removed += outcome.subscribe.edges_removed;
      if (outcome.subscribe.approx_valid == 0) merged.approx_valid = 0;
      merged.approx_triangles += outcome.subscribe.approx_triangles;
    }
    if (succeeded == 0) {
      Metrics().GetCounter("router.failures")->Increment();
      return SendError(fd, Status::Unavailable("all shards failed"));
    }
    merged.epoch = shards_->virtual_epoch();
    if (merged.epoch > request.after_epoch) {
      merged.timed_out = 0;
      break;
    }
    if (NowMicros() >= deadline) {
      merged.timed_out = 1;
      break;
    }
    const uint64_t remaining_ms = (deadline - NowMicros()) / 1000;
    std::this_thread::sleep_for(std::chrono::milliseconds(
        std::min<uint64_t>(options_.subscribe_poll_ms,
                           std::max<uint64_t>(1, remaining_ms))));
  }
  if (merged.partial_shards != 0) {
    Metrics().GetCounter("router.partial")->Increment();
  }
  return WriteMessage(fd, MessageType::kSubscribeCountResult,
                      EncodeSubscribeCountResult(merged));
}

Status QueryRouter::HandleStats(int fd) {
  Metrics().GetCounter("router.requests")->Increment();
  std::vector<uint32_t> targets(shards_->num_shards());
  for (uint32_t i = 0; i < targets.size(); ++i) targets[i] = i;
  std::vector<ShardOutcome> outcomes;
  FanOut(targets,
         [this](uint32_t shard, ShardOutcome* outcome) {
           auto conn = AcquireConn(shard);
           if (!conn.ok()) {
             outcome->status = conn.status();
             return;
           }
           auto stats = conn->client.StatsFull();
           outcome->status = stats.status();
           if (stats.ok()) outcome->stats = *stats;
           ReleaseConn(shard, std::move(*conn), stats.status().ok());
         },
         &outcomes);

  uint64_t mask = 0;
  StatsResult merged;
  std::map<std::string, uint64_t> counters;
  std::map<std::string, std::vector<StatsHistogram>> histograms;
  for (uint32_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].status.ok()) {
      mask |= (1ull << i);
      continue;
    }
    for (const StatsCounter& counter : outcomes[i].stats.counters) {
      counters[counter.name] += counter.value;
    }
    for (const StatsHistogram& histogram : outcomes[i].stats.histograms) {
      histograms[histogram.name].push_back(histogram);
    }
  }
  // The router's own registry (router.*, shardset.*) rides along so one
  // STATS shows both sides of the fan-out.
  for (const auto& [name, value] : Metrics().Counters()) {
    counters[name] += value;
  }
  for (const MetricsRegistry::HistogramEntry& entry :
       Metrics().Histograms()) {
    StatsHistogram histogram;
    histogram.name = entry.name;
    histogram.count = entry.snapshot.count;
    histogram.min = entry.snapshot.min;
    histogram.max = entry.snapshot.max;
    histogram.mean = entry.snapshot.Mean();
    histogram.p50 = entry.snapshot.P50();
    histogram.p95 = entry.snapshot.Quantile(0.95);
    histogram.p99 = entry.snapshot.Quantile(0.99);
    histograms[entry.name].push_back(histogram);
  }
  for (const auto& [name, parts] : histograms) {
    merged.histograms.push_back(MergeHistograms(name, parts));
  }
  for (const auto& [name, value] : counters) {
    merged.counters.push_back({name, value});
  }

  std::ostringstream text;
  const ShardManifest& manifest = shards_->manifest();
  text << "router.graph=" << manifest.graph << '\n'
       << "router.num_shards=" << shards_->num_shards() << '\n'
       << "router.virtual_epoch=" << shards_->virtual_epoch() << '\n'
       << "router.partial_shards=" << mask << '\n'
       << "router.ghost_triangles=" << manifest.ghost_triangles_total()
       << '\n';
  for (uint32_t i = 0; i < shards_->num_shards(); ++i) {
    const ShardEndpoint endpoint = shards_->endpoint(i);
    text << "router.shard." << i << ".address=" << endpoint.host << ':'
         << endpoint.port << '\n'
         << "router.shard." << i << ".healthy=" << (shards_->healthy(i) ? 1 : 0)
         << '\n'
         << "router.shard." << i << ".epoch=" << shards_->epoch(i) << '\n'
         << "router.shard." << i << ".restarts=" << shards_->restarts(i)
         << '\n';
  }
  merged.text = text.str();
  return WriteMessage(fd, MessageType::kStatsResult,
                      EncodeStatsResult(merged));
}

Status QueryRouter::HandleShardStats(int fd) {
  const ShardManifest& manifest = shards_->manifest();
  ShardStatsResult result;
  result.graph = manifest.graph;
  for (uint32_t i = 0; i < shards_->num_shards(); ++i) {
    ShardStatsEntry entry;
    entry.id = i;
    const ShardEndpoint endpoint = shards_->endpoint(i);
    entry.address = endpoint.host + ":" + std::to_string(endpoint.port);
    entry.healthy = shards_->healthy(i) ? 1 : 0;
    entry.pid = static_cast<uint64_t>(shards_->pid(i));
    entry.range_lo = manifest.shards[i].range_lo;
    entry.range_hi = manifest.shards[i].range_hi;
    entry.epoch = shards_->epoch(i);
    entry.restarts = shards_->restarts(i);
    entry.ghost_triangles = manifest.shards[i].ghost_triangles;
    const ShardMetrics& metrics = *shard_metrics_[i];
    entry.requests = metrics.requests.load(std::memory_order_relaxed);
    entry.failures = metrics.failures.load(std::memory_order_relaxed);
    entry.retries = metrics.retries.load(std::memory_order_relaxed);
    const HistogramSnapshot snapshot = metrics.latency_micros.Snapshot();
    entry.latency_p50_micros = snapshot.P50();
    entry.latency_p95_micros = snapshot.Quantile(0.95);
    entry.latency_p99_micros = snapshot.Quantile(0.99);
    result.shards.push_back(std::move(entry));
  }
  return WriteMessage(fd, MessageType::kShardStatsResult,
                      EncodeShardStatsResult(result));
}

Status QueryRouter::HandleTracePull(int fd, const WireMessage& message) {
  TracePullRequest request;
  Status status = DecodeTracePullRequest(message.payload, &request);
  if (!status.ok()) return SendError(fd, status);
  Metrics().GetCounter("router.requests")->Increment();

  std::vector<uint32_t> targets(shards_->num_shards());
  for (uint32_t i = 0; i < targets.size(); ++i) targets[i] = i;
  std::vector<ShardOutcome> outcomes;
  FanOut(targets,
         [this, &request](uint32_t shard, ShardOutcome* outcome) {
           auto conn = AcquireConn(shard);
           if (!conn.ok()) {
             outcome->status = conn.status();
             return;
           }
           auto pulled = conn->client.TracePull(request.drain != 0);
           outcome->status = pulled.status();
           if (pulled.ok()) outcome->trace = std::move(*pulled);
           ReleaseConn(shard, std::move(*conn), pulled.status().ok());
         },
         &outcomes);

  TracePullResult merged;
  // The router's own section first, then each shard's, relabelled by
  // shard id (a shard reports itself as "opt_server"; the router knows
  // which slot it answered from). Unreachable shards just contribute no
  // section — the assembled trace is partial, not an error.
  if (TraceRecorder* recorder = CurrentTraceRecorder()) {
    ProcessTrace section;
    section.pid = static_cast<uint64_t>(::getpid());
    section.label = "router";
    section.unix_origin_micros = recorder->unix_origin_micros();
    section.events =
        request.drain != 0 ? recorder->Drain() : recorder->Events();
    section.dropped_spans = recorder->dropped();
    merged.processes.push_back(std::move(section));
  }
  for (uint32_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].status.ok()) continue;
    for (ProcessTrace& section : outcomes[i].trace.processes) {
      section.label = "shard" + std::to_string(i);
      merged.processes.push_back(std::move(section));
    }
  }
  return WriteMessage(fd, MessageType::kTracePullResult,
                      EncodeTracePullResult(merged));
}

std::string QueryRouter::FleetPrometheus() {
  std::vector<uint32_t> targets(shards_->num_shards());
  for (uint32_t i = 0; i < targets.size(); ++i) targets[i] = i;
  std::vector<ShardOutcome> outcomes;
  FanOut(targets,
         [this](uint32_t shard, ShardOutcome* outcome) {
           auto conn = AcquireConn(shard);
           if (!conn.ok()) {
             outcome->status = conn.status();
             return;
           }
           auto stats = conn->client.StatsFull();
           outcome->status = stats.status();
           if (stats.ok()) outcome->stats = std::move(*stats);
           ReleaseConn(shard, std::move(*conn), stats.status().ok());
         },
         &outcomes);

  std::map<std::string, uint64_t> counters;
  std::map<std::string, std::vector<StatsHistogram>> histograms;
  for (const ShardOutcome& outcome : outcomes) {
    if (!outcome.status.ok()) continue;
    for (const StatsCounter& counter : outcome.stats.counters) {
      counters[counter.name] += counter.value;
    }
    for (const StatsHistogram& histogram : outcome.stats.histograms) {
      histograms[histogram.name].push_back(histogram);
    }
  }

  std::ostringstream out;
  out << "# TYPE opt_shard_up gauge\n";
  for (uint32_t i = 0; i < shards_->num_shards(); ++i) {
    out << "opt_shard_up{shard=\"" << i << "\"} "
        << (shards_->healthy(i) ? 1 : 0) << '\n';
  }
  for (const auto& [name, value] : counters) {
    const std::string fleet = SanitizeMetricName("fleet." + name);
    out << "# TYPE " << fleet << " counter\n"
        << fleet << ' ' << value << '\n';
  }
  for (const auto& [name, parts] : histograms) {
    const StatsHistogram merged = MergeHistograms(name, parts);
    const std::string fleet = SanitizeMetricName("fleet." + name);
    out << "# TYPE " << fleet << " summary\n";
    out << fleet << "{quantile=\"0.5\"} " << merged.p50 << '\n';
    out << fleet << "{quantile=\"0.95\"} " << merged.p95 << '\n';
    out << fleet << "{quantile=\"0.99\"} " << merged.p99 << '\n';
    out << fleet << "_sum "
        << merged.mean * static_cast<double>(merged.count) << '\n';
    out << fleet << "_count " << merged.count << '\n';
  }
  return out.str();
}

}  // namespace opt
