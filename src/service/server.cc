#include "service/server.h"

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "obs/perf_counters.h"
#include "service/graph_registry.h"
#include "service/wire_list_sink.h"
#include "storage/buffer_pool.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace opt {

namespace {

QuerySpec SpecFromRequest(const QueryRequest& request, QueryKind kind) {
  QuerySpec spec;
  spec.graph = request.graph;
  spec.kind = kind;
  spec.memory_pages = request.memory_pages;
  spec.num_threads = request.num_threads;
  spec.deadline_millis = request.deadline_millis;
  return spec;
}

CountResult CountResultFrom(const QueryResult& result) {
  CountResult wire;
  wire.triangles = result.triangles;
  wire.seconds = result.seconds;
  wire.source = static_cast<uint8_t>(result.source);
  wire.pool_hits = result.pool_hits;
  wire.pages_read = result.pages_read;
  wire.iterations = result.iterations;
  return wire;
}

ProfileResult ProfileResultFrom(const QueryResult& result) {
  ProfileResult wire;
  wire.triangles = result.triangles;
  wire.seconds = result.seconds;
  wire.iterations = result.iterations;
  const OverlapReport& overlap = result.overlap;
  wire.period_micros = overlap.period_micros;
  wire.samples = overlap.samples;
  wire.micro_overlap_samples = overlap.micro_overlap_samples;
  wire.macro_overlap_samples = overlap.macro_overlap_samples;
  wire.cpu_active_samples = overlap.cpu_active_samples;
  wire.io_inflight_samples = overlap.io_inflight_samples;
  wire.stalled_samples = overlap.stalled_samples;
  wire.morph_events = overlap.morph_events;
  wire.role_samples.assign(overlap.role_samples.begin(),
                           overlap.role_samples.end());
  wire.micro_overlap = overlap.MicroOverlapFraction();
  wire.macro_overlap = overlap.MacroOverlapFraction();
  wire.cost_c_seconds_per_page = overlap.cost.c_seconds_per_page;
  wire.delta_in_pages = overlap.cost.delta_in_pages;
  wire.delta_ex_pages = overlap.cost.delta_ex_pages;
  wire.cost_ideal_seconds = overlap.cost.ideal_seconds;
  wire.cost_predicted_seconds = overlap.cost.predicted_seconds;
  wire.cost_measured_seconds = overlap.cost.measured_seconds;
  wire.cost_residual_seconds = overlap.cost.residual_seconds;
  return wire;
}

}  // namespace

OptServer::OptServer(QueryScheduler* scheduler, bool allow_load_graph,
                     bool allow_mutations)
    : scheduler_(scheduler),
      allow_load_graph_(allow_load_graph),
      allow_mutations_(allow_mutations),
      listener_([this](int fd) { HandleConnection(fd); }) {}

OptServer::~OptServer() { Stop(); }

Status OptServer::ListenTcp(uint16_t port) {
  return listener_.ListenTcp(port);
}

Status OptServer::ListenUnix(const std::string& path) {
  return listener_.ListenUnix(path);
}

Status OptServer::Start() {
  OPT_RETURN_IF_ERROR(listener_.Start());
  prime_thread_ = std::thread([this] { PrimeLoop(); });
  return Status::OK();
}

void OptServer::Stop() {
  listener_.Stop();
  {
    // Set under the lock so a primer between its stopping_ check and
    // its wait cannot miss the wakeup.
    std::lock_guard<std::mutex> lock(prime_mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  prime_cv_.notify_all();
  if (prime_thread_.joinable()) prime_thread_.join();
}

void OptServer::HandleConnection(int fd) {
  for (;;) {
    WireMessage message;
    Status status = ReadMessage(fd, &message);
    if (!status.ok()) return;  // EOF or broken pipe: drop the connection
    switch (message.type) {
      case MessageType::kCountRequest:
        status = HandleCount(fd, message);
        break;
      case MessageType::kListRequest:
        status = HandleList(fd, message);
        break;
      case MessageType::kProfileRequest:
        status = HandleProfile(fd, message);
        break;
      case MessageType::kStatsRequest:
        status = HandleStats(fd);
        break;
      case MessageType::kLoadGraphRequest:
        status = HandleLoadGraph(fd, message);
        break;
      case MessageType::kAddEdgesRequest:
        status = HandleMutate(fd, message, DeltaKind::kAdd);
        break;
      case MessageType::kRemoveEdgesRequest:
        status = HandleMutate(fd, message, DeltaKind::kRemove);
        break;
      case MessageType::kSubscribeCountRequest:
        status = HandleSubscribe(fd, message);
        break;
      case MessageType::kTracePullRequest:
        status = HandleTracePull(fd, message);
        break;
      case MessageType::kShardStatsRequest:
        status = SendError(
            fd, Status::NotSupported(
                    "SHARD_STATS is answered by opt_router, not opt_server"));
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

Status OptServer::HandleCount(int fd, const WireMessage& message) {
  QueryRequest request;
  Status status = DecodeQueryRequest(message.payload, &request);
  if (!status.ok()) return SendError(fd, status);
  TraceContextScope remote({request.trace_id, request.parent_span_id});
  TraceSpan query_span("service", "query.count",
                       CurrentTraceRecorder() != nullptr
                           ? "\"graph\":\"" + JsonEscape(request.graph) + "\""
                           : std::string());
  const QueryResult result =
      scheduler_->Run(SpecFromRequest(request, QueryKind::kCount));
  if (!result.status.ok()) {
    return SendError(fd, result.status, result.flight_events,
                     query_span.trace_id());
  }
  return WriteMessage(fd, MessageType::kCountResult,
                      EncodeCountResult(CountResultFrom(result)));
}

Status OptServer::HandleProfile(int fd, const WireMessage& message) {
  QueryRequest request;
  Status status = DecodeQueryRequest(message.payload, &request);
  if (!status.ok()) return SendError(fd, status);
  TraceContextScope remote({request.trace_id, request.parent_span_id});
  TraceSpan query_span("service", "query.profile",
                       CurrentTraceRecorder() != nullptr
                           ? "\"graph\":\"" + JsonEscape(request.graph) + "\""
                           : std::string());
  QuerySpec spec = SpecFromRequest(request, QueryKind::kCount);
  spec.profile = true;
  const QueryResult result = scheduler_->Run(spec);
  if (!result.status.ok()) {
    return SendError(fd, result.status, result.flight_events,
                     query_span.trace_id());
  }
  const ProfileResult profile = ProfileResultFrom(result);
  AppendProfileLine(profile, request.graph);
  return WriteMessage(fd, MessageType::kProfileResult,
                      EncodeProfileResult(profile));
}

Status OptServer::HandleList(int fd, const WireMessage& message) {
  QueryRequest request;
  Status status = DecodeQueryRequest(message.payload, &request);
  if (!status.ok()) return SendError(fd, status);
  TraceContextScope remote({request.trace_id, request.parent_span_id});
  TraceSpan query_span("service", "query.list",
                       CurrentTraceRecorder() != nullptr
                           ? "\"graph\":\"" + JsonEscape(request.graph) + "\""
                           : std::string());
  WireListSink sink(fd);
  QuerySpec spec = SpecFromRequest(request, QueryKind::kList);
  spec.list_sink = &sink;
  const QueryResult result = scheduler_->Run(spec);
  OPT_RETURN_IF_ERROR(sink.Finish());
  if (!result.status.ok()) {
    return SendError(fd, result.status, result.flight_events,
                     query_span.trace_id());
  }
  ListEnd end;
  end.triangles = result.triangles;
  end.seconds = result.seconds;
  return WriteMessage(fd, MessageType::kListEnd, EncodeListEnd(end));
}

std::string OptServer::RenderStats() const {
  std::ostringstream out;
  const SchedulerStats stats = scheduler_->stats();
  out << "scheduler.submitted=" << stats.submitted << '\n'
      << "scheduler.admitted=" << stats.admitted << '\n'
      << "scheduler.rejected=" << stats.rejected << '\n'
      << "scheduler.executed=" << stats.executed << '\n'
      << "scheduler.completed=" << stats.completed << '\n'
      << "scheduler.failed=" << stats.failed << '\n'
      << "scheduler.coalesced=" << stats.coalesced << '\n'
      << "scheduler.cache_hits=" << stats.cache_hits << '\n'
      << "scheduler.deadline_expired=" << stats.deadline_expired << '\n'
      << "scheduler.slow_queries=" << stats.slow_queries << '\n'
      << "scheduler.degraded=" << stats.degraded << '\n';
  const ResultCache::Stats cache = scheduler_->cache_stats();
  out << "cache.hits=" << cache.hits << '\n'
      << "cache.misses=" << cache.misses << '\n'
      << "cache.insertions=" << cache.insertions << '\n'
      << "cache.invalidations=" << cache.invalidations << '\n';
  GraphRegistry* registry = scheduler_->registry();
  if (const BufferPool* pool = registry->pool()) {
    const PoolStatsSnapshot snapshot = pool->stats().Snapshot();
    out << "pool.frames=" << pool->num_frames() << '\n'
        << "pool.lookups=" << snapshot.lookups << '\n'
        << "pool.hits=" << snapshot.hits << '\n'
        << "pool.evictions=" << snapshot.evictions << '\n'
        << "pool.allocations=" << snapshot.allocations << '\n';
  }
  // The active counter backend (DESIGN.md §13) plus every registry
  // gauge: gauges don't travel in the wire counters section, so the
  // text block is where clients read gauge levels such as perf.*.
  out << PerfBackendStatsText();
  for (const auto& [name, value] : Metrics().Gauges()) {
    out << name << "=" << value << '\n';
  }
  for (const GraphRegistry::GraphInfo& info : registry->List()) {
    out << "graph." << info.name << ".vertices=" << info.num_vertices
        << '\n'
        << "graph." << info.name << ".directed_edges="
        << info.num_directed_edges << '\n'
        << "graph." << info.name << ".pages=" << info.num_pages << '\n'
        << "graph." << info.name << ".epoch=" << info.epoch << '\n'
        << "graph." << info.name << ".delta_edges_added="
        << info.delta_edges_added << '\n'
        << "graph." << info.name << ".delta_edges_removed="
        << info.delta_edges_removed << '\n'
        << "graph." << info.name << ".delta_triangles="
        << info.delta_triangles << '\n';
  }
  return out.str();
}

StatsResult OptServer::BuildStats() const {
  StatsResult stats;
  stats.text = RenderStats();
  MetricsRegistry& registry = Metrics();
  for (const MetricsRegistry::HistogramEntry& entry :
       registry.Histograms()) {
    StatsHistogram histogram;
    histogram.name = entry.name;
    histogram.count = entry.snapshot.count;
    histogram.min = entry.snapshot.min;
    histogram.max = entry.snapshot.max;
    histogram.mean = entry.snapshot.Mean();
    histogram.p50 = entry.snapshot.P50();
    histogram.p95 = entry.snapshot.P95();
    histogram.p99 = entry.snapshot.P99();
    stats.histograms.push_back(std::move(histogram));
  }
  for (const auto& [name, value] : registry.Counters()) {
    stats.counters.push_back({name, value});
  }
  return stats;
}

Status OptServer::HandleStats(int fd) {
  return WriteMessage(fd, MessageType::kStatsResult,
                      EncodeStatsResult(BuildStats()));
}

void OptServer::SetProfileOutput(const std::string& path) {
  std::lock_guard<std::mutex> lock(profile_out_mutex_);
  profile_out_path_ = path;
}

void OptServer::AppendProfileLine(const ProfileResult& profile,
                                  const std::string& graph) {
  std::lock_guard<std::mutex> lock(profile_out_mutex_);
  if (profile_out_path_.empty()) return;
  std::ofstream out(profile_out_path_, std::ios::app);
  if (!out) return;
  out << "{\"graph\":\"" << JsonEscape(graph) << "\""
      << ",\"triangles\":" << profile.triangles
      << ",\"seconds\":" << profile.seconds
      << ",\"iterations\":" << profile.iterations
      << ",\"period_micros\":" << profile.period_micros
      << ",\"samples\":" << profile.samples
      << ",\"micro_overlap\":" << profile.micro_overlap
      << ",\"macro_overlap\":" << profile.macro_overlap
      << ",\"stalled_samples\":" << profile.stalled_samples
      << ",\"morph_events\":" << profile.morph_events
      << ",\"cost_c_seconds_per_page\":" << profile.cost_c_seconds_per_page
      << ",\"delta_in_pages\":" << profile.delta_in_pages
      << ",\"delta_ex_pages\":" << profile.delta_ex_pages
      << ",\"cost_ideal_seconds\":" << profile.cost_ideal_seconds
      << ",\"cost_predicted_seconds\":" << profile.cost_predicted_seconds
      << ",\"cost_measured_seconds\":" << profile.cost_measured_seconds
      << ",\"cost_residual_seconds\":" << profile.cost_residual_seconds
      << "}\n";
}

Status OptServer::HandleMutate(int fd, const WireMessage& message,
                               DeltaKind kind) {
  if (!allow_mutations_) {
    return SendError(fd, Status::NotSupported(
                             "streaming mutations disabled on this server"));
  }
  MutateRequest request;
  Status status = DecodeMutateRequest(message.payload, &request);
  if (!status.ok()) return SendError(fd, status);
  TraceContextScope remote({request.trace_id, request.parent_span_id});
  TraceSpan span("service",
                 kind == DeltaKind::kAdd ? "delta.add" : "delta.remove",
                 CurrentTraceRecorder() != nullptr
                     ? "\"graph\":\"" + JsonEscape(request.graph) + "\""
                     : std::string());
  const MutationResult result =
      scheduler_->ApplyDelta(request.graph, kind, request.edges);
  if (!result.status.ok()) return SendError(fd, result.status);
  MutateResult wire;
  wire.epoch = result.epoch;
  wire.batch_triangle_delta = result.batch_triangle_delta;
  wire.total_triangle_delta = result.total_triangle_delta;
  wire.edges_applied = result.edges_applied;
  wire.seconds = result.seconds;
  wire.approx_valid = result.approx_valid ? 1 : 0;
  wire.approx_triangles = result.approx_triangles;
  return WriteMessage(fd, MessageType::kMutateResult,
                      EncodeMutateResult(wire));
}

Status OptServer::HandleSubscribe(int fd, const WireMessage& message) {
  SubscribeCountRequest request;
  Status status = DecodeSubscribeCountRequest(message.payload, &request);
  if (!status.ok()) return SendError(fd, status);
  TraceContextScope remote({request.trace_id, request.parent_span_id});
  TraceSpan span("service", "subscribe.count",
                 CurrentTraceRecorder() != nullptr
                     ? "\"graph\":\"" + JsonEscape(request.graph) + "\""
                     : std::string());
  GraphRegistry* registry = scheduler_->registry();
  auto state = registry->DeltaState(request.graph);
  if (!state.ok()) return SendError(fd, state.status());
  if (!state->base_known) {
    // Learn the base count in the background: a synchronous COUNT here
    // would charge its full latency to every subscriber (and eat the
    // poll budget) on graphs where counts are slow or keep failing.
    // The reply just carries exact_known=0 until a count has recorded
    // the base via SetBaseTriangles; the delta fields stay exact.
    SchedulePrime(request.graph);
  }
  auto snap = registry->WaitForEpoch(
      request.graph, request.after_epoch,
      std::chrono::milliseconds(request.timeout_millis));
  if (!snap.ok()) return SendError(fd, snap.status());
  SubscribeCountResult wire;
  wire.epoch = snap->epoch;
  wire.timed_out = snap->timed_out ? 1 : 0;
  wire.exact_known = snap->base_known ? 1 : 0;
  if (snap->base_known) {
    const int64_t total = static_cast<int64_t>(snap->base_triangles) +
                          snap->triangle_delta;
    wire.triangles = static_cast<uint64_t>(std::max<int64_t>(0, total));
  }
  wire.delta_triangles = snap->triangle_delta;
  wire.edges_added = snap->edges_added;
  wire.edges_removed = snap->edges_removed;
  wire.approx_valid = snap->approx_valid ? 1 : 0;
  wire.approx_triangles = snap->approx_triangles;
  return WriteMessage(fd, MessageType::kSubscribeCountResult,
                      EncodeSubscribeCountResult(wire));
}

void OptServer::SchedulePrime(const std::string& graph) {
  std::lock_guard<std::mutex> lock(prime_mutex_);
  if (stopping_) return;
  if (!prime_pending_.insert(graph).second) return;  // already in flight
  prime_queue_.push_back(graph);
  prime_cv_.notify_one();
}

void OptServer::PrimeLoop() {
  std::unique_lock<std::mutex> lock(prime_mutex_);
  while (!stopping_) {
    if (prime_queue_.empty()) {
      prime_cv_.wait(lock);
      continue;
    }
    const std::string graph = std::move(prime_queue_.front());
    prime_queue_.pop_front();
    lock.unlock();
    // Coalescable with concurrent COUNTs; a successful run records the
    // base via SetBaseTriangles. A failed run leaves it unknown — a
    // later subscribe schedules a fresh attempt (the pending-set entry
    // is only cleared once this run finishes, so at most one count per
    // graph is ever in flight on this thread's behalf).
    QuerySpec spec;
    spec.graph = graph;
    (void)scheduler_->Run(spec);
    lock.lock();
    prime_pending_.erase(graph);
  }
}

Status OptServer::HandleTracePull(int fd, const WireMessage& message) {
  TracePullRequest request;
  Status status = DecodeTracePullRequest(message.payload, &request);
  if (!status.ok()) return SendError(fd, status);
  TracePullResult result;
  if (TraceRecorder* recorder = CurrentTraceRecorder()) {
    ProcessTrace section;
    section.pid = static_cast<uint64_t>(::getpid());
    section.label = "opt_server";
    section.unix_origin_micros = recorder->unix_origin_micros();
    section.events =
        request.drain != 0 ? recorder->Drain() : recorder->Events();
    section.dropped_spans = recorder->dropped();
    result.processes.push_back(std::move(section));
  }
  // Tracing off: an empty section list tells the puller "nothing here"
  // rather than erroring, so fleet pulls degrade per process.
  return WriteMessage(fd, MessageType::kTracePullResult,
                      EncodeTracePullResult(result));
}

Status OptServer::HandleLoadGraph(int fd, const WireMessage& message) {
  if (!allow_load_graph_) {
    return SendError(
        fd, Status::NotSupported("LOADGRAPH disabled on this server"));
  }
  LoadGraphRequest request;
  Status status = DecodeLoadGraphRequest(message.payload, &request);
  if (!status.ok()) return SendError(fd, status);
  status = scheduler_->LoadGraph(request.name, request.base_path);
  if (!status.ok()) return SendError(fd, status);
  return WriteMessage(fd, MessageType::kLoadGraphResult, std::string());
}

}  // namespace opt
