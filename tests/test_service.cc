// Service-layer tests: wire protocol round-trips, shared buffer pool
// semantics, graph registry, scheduler (concurrency, coalescing,
// deadlines, admission control, result cache), fault injection, and an
// end-to-end socket exercise with concurrent clients.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "service/client.h"
#include "service/graph_registry.h"
#include "service/query_scheduler.h"
#include "service/result_cache.h"
#include "service/server.h"
#include "service/wire.h"
#include "storage/buffer_pool.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "storage/graph_store.h"
#include "test_helpers.h"

namespace opt {
namespace {

// ---------------------------------------------------------------------
// Wire protocol

TEST(Wire, QueryRequestRoundTrip) {
  QueryRequest request;
  request.graph = "web-graph";
  request.memory_pages = 128;
  request.num_threads = 4;
  request.deadline_millis = 2500;
  QueryRequest decoded;
  ASSERT_TRUE(
      DecodeQueryRequest(EncodeQueryRequest(request), &decoded).ok());
  EXPECT_EQ(decoded.graph, request.graph);
  EXPECT_EQ(decoded.memory_pages, request.memory_pages);
  EXPECT_EQ(decoded.num_threads, request.num_threads);
  EXPECT_EQ(decoded.deadline_millis, request.deadline_millis);
}

TEST(Wire, CountResultRoundTrip) {
  CountResult result;
  result.triangles = 123456789012345ull;
  result.seconds = 0.625;
  result.source = 2;
  result.pool_hits = 77;
  result.pages_read = 400;
  result.iterations = 3;
  CountResult decoded;
  ASSERT_TRUE(
      DecodeCountResult(EncodeCountResult(result), &decoded).ok());
  EXPECT_EQ(decoded.triangles, result.triangles);
  EXPECT_EQ(decoded.seconds, result.seconds);
  EXPECT_EQ(decoded.source, result.source);
  EXPECT_EQ(decoded.pool_hits, result.pool_hits);
  EXPECT_EQ(decoded.pages_read, result.pages_read);
  EXPECT_EQ(decoded.iterations, result.iterations);
}

TEST(Wire, ListBatchRoundTrip) {
  ListBatch batch;
  batch.records.push_back({1, 2, {3, 4, 5}});
  batch.records.push_back({7, 9, {11}});
  batch.records.push_back({20, 21, {}});
  ListBatch decoded;
  ASSERT_TRUE(DecodeListBatch(EncodeListBatch(batch), &decoded).ok());
  ASSERT_EQ(decoded.records.size(), 3u);
  EXPECT_EQ(decoded.records[0].u, 1u);
  EXPECT_EQ(decoded.records[0].ws, (std::vector<VertexId>{3, 4, 5}));
  EXPECT_EQ(decoded.records[1].v, 9u);
  EXPECT_TRUE(decoded.records[2].ws.empty());
}

TEST(Wire, ErrorRoundTrip) {
  const Status original = Status::ResourceExhausted("queue full");
  ErrorResult decoded;
  ASSERT_TRUE(DecodeError(EncodeError(original), &decoded).ok());
  EXPECT_EQ(decoded.ToStatus(), original);
}

TEST(Wire, ErrorWithFlightEventsRoundTrip) {
  const Status original = Status::Unavailable("degraded by I/O fault");
  std::vector<FlightEvent> events;
  events.push_back({100, FlightEventType::kIoRetry, 7, 1});
  events.push_back({250, FlightEventType::kIoGiveup, 7, 10});
  events.push_back({300, FlightEventType::kDegrade, 10, 0});
  ErrorResult decoded;
  ASSERT_TRUE(DecodeError(EncodeError(original, events), &decoded).ok());
  EXPECT_EQ(decoded.ToStatus(), original);
  ASSERT_EQ(decoded.events.size(), 3u);
  EXPECT_EQ(decoded.events[0].type, FlightEventType::kIoRetry);
  EXPECT_EQ(decoded.events[0].t_micros, 100u);
  EXPECT_EQ(decoded.events[0].a, 7u);
  EXPECT_EQ(decoded.events[0].b, 1u);
  EXPECT_EQ(decoded.events[2].type, FlightEventType::kDegrade);
}

TEST(Wire, ErrorWithoutEventsDecodesToEmptyTail) {
  ErrorResult decoded;
  decoded.events.push_back({1, FlightEventType::kDegrade, 0, 0});
  ASSERT_TRUE(
      DecodeError(EncodeError(Status::NotFound("gone")), &decoded).ok());
  EXPECT_TRUE(decoded.events.empty());
}

TEST(Wire, ProfileResultRoundTrip) {
  ProfileResult result;
  result.triangles = 4242;
  result.seconds = 1.25;
  result.iterations = 3;
  result.period_micros = 250;
  result.samples = 1000;
  result.micro_overlap_samples = 700;
  result.macro_overlap_samples = 400;
  result.cpu_active_samples = 950;
  result.io_inflight_samples = 720;
  result.stalled_samples = 5;
  result.morph_events = 12;
  result.role_samples = {10, 500, 300, 40, 50, 100};
  result.micro_overlap = 0.7;
  result.macro_overlap = 0.4;
  result.cost_c_seconds_per_page = 1e-5;
  result.delta_in_pages = 64;
  result.delta_ex_pages = 320;
  result.cost_ideal_seconds = 1.0;
  result.cost_predicted_seconds = 1.2;
  result.cost_measured_seconds = 1.25;
  result.cost_residual_seconds = 0.05;
  ProfileResult decoded;
  ASSERT_TRUE(
      DecodeProfileResult(EncodeProfileResult(result), &decoded).ok());
  EXPECT_EQ(decoded.triangles, result.triangles);
  EXPECT_EQ(decoded.seconds, result.seconds);
  EXPECT_EQ(decoded.iterations, result.iterations);
  EXPECT_EQ(decoded.period_micros, result.period_micros);
  EXPECT_EQ(decoded.samples, result.samples);
  EXPECT_EQ(decoded.micro_overlap_samples, result.micro_overlap_samples);
  EXPECT_EQ(decoded.macro_overlap_samples, result.macro_overlap_samples);
  EXPECT_EQ(decoded.cpu_active_samples, result.cpu_active_samples);
  EXPECT_EQ(decoded.io_inflight_samples, result.io_inflight_samples);
  EXPECT_EQ(decoded.stalled_samples, result.stalled_samples);
  EXPECT_EQ(decoded.morph_events, result.morph_events);
  EXPECT_EQ(decoded.role_samples, result.role_samples);
  EXPECT_EQ(decoded.micro_overlap, result.micro_overlap);
  EXPECT_EQ(decoded.macro_overlap, result.macro_overlap);
  EXPECT_EQ(decoded.cost_c_seconds_per_page, result.cost_c_seconds_per_page);
  EXPECT_EQ(decoded.delta_in_pages, result.delta_in_pages);
  EXPECT_EQ(decoded.delta_ex_pages, result.delta_ex_pages);
  EXPECT_EQ(decoded.cost_ideal_seconds, result.cost_ideal_seconds);
  EXPECT_EQ(decoded.cost_predicted_seconds, result.cost_predicted_seconds);
  EXPECT_EQ(decoded.cost_measured_seconds, result.cost_measured_seconds);
  EXPECT_EQ(decoded.cost_residual_seconds, result.cost_residual_seconds);
}

TEST(Wire, TruncatedPayloadsAreCorruption) {
  QueryRequest request{"g", 1, 2, 3};
  request.trace_id = 0x1111222233334444ull;
  request.parent_span_id = 0x5555666677778888ull;
  const std::string payload = EncodeQueryRequest(request);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    QueryRequest decoded;
    EXPECT_EQ(DecodeQueryRequest(payload.substr(0, cut), &decoded).code(),
              StatusCode::kCorruption)
        << "cut=" << cut;
  }
}

/// One row per payload shape: the encoding of a message with every
/// field set, how many bytes its last field takes, and a decode that
/// re-encodes what it read. Message types that share a shape (COUNT,
/// LIST and PROFILE requests; ADD_EDGES and REMOVE_EDGES) share a row;
/// STATS and SHARD_STATS requests carry no payload.
struct WireCase {
  std::string name;
  std::string payload;
  size_t last_field_bytes;
  std::function<Status(std::string_view, std::string*)> reencode;
};

template <typename T, typename Encode>
WireCase MakeWireCase(std::string name, const T& message,
                      size_t last_field_bytes, Encode encode,
                      Status (*decode)(std::string_view, T*)) {
  return {std::move(name), encode(message), last_field_bytes,
          [encode, decode](std::string_view payload, std::string* out) {
            T decoded;
            OPT_RETURN_IF_ERROR(decode(payload, &decoded));
            *out = encode(decoded);
            return Status::OK();
          }};
}

std::vector<WireCase> AllWireCases() {
  std::vector<WireCase> cases;
  cases.push_back(MakeWireCase("QueryRequest",
                               QueryRequest{"g", 8, 2, 1000, 0xabc, 0x42}, 8,
                               EncodeQueryRequest, DecodeQueryRequest));
  cases.push_back(MakeWireCase(
      "CountResult", CountResult{99, 0.5, 2, 7, 40, 3, 0b101, 3}, 4,
      EncodeCountResult, DecodeCountResult));
  cases.push_back(MakeWireCase("LoadGraphRequest",
                               LoadGraphRequest{"g", "/data/g"}, 4 + 7,
                               EncodeLoadGraphRequest,
                               DecodeLoadGraphRequest));
  cases.push_back(MakeWireCase(
      "MutateRequest", MutateRequest{"g", {{1, 2}, {3, 4}}, 7, 9}, 8,
      EncodeMutateRequest, DecodeMutateRequest));
  cases.push_back(MakeWireCase(
      "MutateResult", MutateResult{5, -3, -1, 2, 0.25, 1, 17.5, 0b10, 2}, 4,
      EncodeMutateResult, DecodeMutateResult));
  cases.push_back(MakeWireCase(
      "SubscribeCountRequest", SubscribeCountRequest{"g", 3, 50, 11, 13}, 8,
      EncodeSubscribeCountRequest, DecodeSubscribeCountRequest));
  cases.push_back(MakeWireCase(
      "SubscribeCountResult",
      SubscribeCountResult{4, 1, 1, 20, -2, 6, 1, 1, 19.5, 1, 4}, 4,
      EncodeSubscribeCountResult, DecodeSubscribeCountResult));
  ErrorResult error;
  error.code = static_cast<uint32_t>(StatusCode::kUnavailable);
  error.message = "degraded";
  error.events = {{100, FlightEventType::kIoRetry, 7, 1},
                  {300, FlightEventType::kDegrade, 10, 0}};
  error.trace_id = 0xfeedface;
  cases.push_back(MakeWireCase(
      "Error", error, 8,
      [](const ErrorResult& e) {
        return EncodeError(e.ToStatus(), e.events, e.trace_id);
      },
      DecodeError));
  ProfileResult profile;
  profile.triangles = 4242;
  profile.seconds = 1.25;
  profile.samples = 1000;
  profile.role_samples = {1, 2, 3};
  profile.cost_residual_seconds = -0.01;
  cases.push_back(MakeWireCase("ProfileResult", profile, 8,
                               EncodeProfileResult, DecodeProfileResult));
  ListBatch batch;
  batch.records = {{1, 2, {3, 4, 5}}, {20, 21, {}}, {7, 9, {11}}};
  cases.push_back(MakeWireCase("ListBatch", batch, 4, EncodeListBatch,
                               DecodeListBatch));
  cases.push_back(MakeWireCase("ListEnd", ListEnd{12, 0.75, 0b1000, 4}, 4,
                               EncodeListEnd, DecodeListEnd));
  StatsResult stats;
  stats.text = "scheduler.submitted=1\n";
  stats.histograms.push_back({"query.latency_us", 1, 5, 5, 5, 5, 5, 5});
  stats.counters.push_back({"io.requests", 9});
  cases.push_back(MakeWireCase("StatsResult", stats, 8, EncodeStatsResult,
                               DecodeStatsResult));
  ShardStatsResult shard_stats;
  shard_stats.graph = "g";
  ShardStatsEntry shard;
  shard.id = 1;
  shard.address = "127.0.0.1:7000";
  shard.healthy = 1;
  shard.range_hi = 100;
  shard.latency_p99_micros = 812.5;
  shard_stats.shards = {shard, shard};
  cases.push_back(MakeWireCase("ShardStatsResult", shard_stats, 8,
                               EncodeShardStatsResult,
                               DecodeShardStatsResult));
  cases.push_back(MakeWireCase("TracePullRequest", TracePullRequest{0}, 1,
                               EncodeTracePullRequest,
                               DecodeTracePullRequest));
  ProcessTrace process;
  process.pid = 4242;
  process.label = "shard7";
  TraceEvent event;
  event.name = "query.count";
  event.category = "service";
  event.phase = 'X';
  event.args_json = "{}";
  process.events = {event};
  cases.push_back(MakeWireCase("TracePullResult",
                               TracePullResult{{process, process}}, 4 + 2,
                               EncodeTracePullResult, DecodeTracePullResult));
  return cases;
}

TEST(Wire, EveryPayloadIsExactlyItsFields) {
  for (const WireCase& c : AllWireCases()) {
    SCOPED_TRACE(c.name);
    std::string reencoded;
    ASSERT_TRUE(c.reencode(c.payload, &reencoded).ok());
    EXPECT_EQ(reencoded, c.payload);

    ASSERT_LE(c.last_field_bytes, c.payload.size());
    const std::string_view without_last_field(
        c.payload.data(), c.payload.size() - c.last_field_bytes);
    EXPECT_EQ(c.reencode(without_last_field, &reencoded).code(),
              StatusCode::kCorruption);
    EXPECT_EQ(c.reencode(c.payload + '\0', &reencoded).code(),
              StatusCode::kCorruption);
    // No shorter payload decodes either. (A cut inside a mutate batch's
    // edge list is the client's InvalidArgument, not Corruption.)
    for (size_t cut = 0; cut < c.payload.size(); ++cut) {
      EXPECT_FALSE(c.reencode(c.payload.substr(0, cut), &reencoded).ok())
          << "cut=" << cut;
    }
  }
}

TEST(Wire, RequestTraceIdsRoundTrip) {
  QueryRequest query{"g", 8, 2, 1000};
  query.trace_id = 0xabcdef0123456789ull;
  query.parent_span_id = 0x42ull;
  QueryRequest query_decoded;
  ASSERT_TRUE(
      DecodeQueryRequest(EncodeQueryRequest(query), &query_decoded).ok());
  EXPECT_EQ(query_decoded.trace_id, query.trace_id);
  EXPECT_EQ(query_decoded.parent_span_id, query.parent_span_id);

  MutateRequest mutate;
  mutate.graph = "g";
  mutate.edges = {{1, 2}, {3, 4}};
  mutate.trace_id = 7;
  mutate.parent_span_id = 9;
  MutateRequest mutate_decoded;
  ASSERT_TRUE(
      DecodeMutateRequest(EncodeMutateRequest(mutate), &mutate_decoded)
          .ok());
  EXPECT_EQ(mutate_decoded.edges, mutate.edges);
  EXPECT_EQ(mutate_decoded.trace_id, 7u);
  EXPECT_EQ(mutate_decoded.parent_span_id, 9u);

  SubscribeCountRequest subscribe;
  subscribe.graph = "g";
  subscribe.after_epoch = 3;
  subscribe.timeout_millis = 50;
  subscribe.trace_id = 11;
  subscribe.parent_span_id = 13;
  SubscribeCountRequest subscribe_decoded;
  ASSERT_TRUE(DecodeSubscribeCountRequest(
                  EncodeSubscribeCountRequest(subscribe),
                  &subscribe_decoded)
                  .ok());
  EXPECT_EQ(subscribe_decoded.after_epoch, 3u);
  EXPECT_EQ(subscribe_decoded.trace_id, 11u);
  EXPECT_EQ(subscribe_decoded.parent_span_id, 13u);
}

TEST(Wire, ErrorTraceIdRoundTrips) {
  std::vector<FlightEvent> events;
  events.push_back({1000, FlightEventType::kIoRetry, 2, 1});
  ErrorResult decoded;
  ASSERT_TRUE(DecodeError(EncodeError(Status::Unavailable("degraded"),
                                      events, 0xfeedface0000ull),
                          &decoded)
                  .ok());
  EXPECT_EQ(decoded.code, static_cast<uint32_t>(StatusCode::kUnavailable));
  ASSERT_EQ(decoded.events.size(), 1u);
  EXPECT_EQ(decoded.trace_id, 0xfeedface0000ull);
}

TEST(Wire, TracePullRoundTrip) {
  TracePullRequest request;
  request.drain = 0;
  TracePullRequest request_decoded;
  ASSERT_TRUE(DecodeTracePullRequest(EncodeTracePullRequest(request),
                                     &request_decoded)
                  .ok());
  EXPECT_EQ(request_decoded.drain, 0u);

  TracePullResult result;
  ProcessTrace section;
  section.pid = 4242;
  section.label = "shard7";
  section.unix_origin_micros = 1700000000000000ull;
  section.dropped_spans = 3;
  TraceEvent event;
  event.name = "query.count";
  event.category = "service";
  event.phase = 'X';
  event.ts_micros = 10;
  event.dur_micros = 250;
  event.tid = 2;
  event.trace_id = 0x77;
  event.span_id = 0x78;
  event.parent_span_id = 0x79;
  event.args_json = "\"graph\":\"g\"";
  section.events.push_back(event);
  result.processes.push_back(section);
  TracePullResult result_decoded;
  ASSERT_TRUE(DecodeTracePullResult(EncodeTracePullResult(result),
                                    &result_decoded)
                  .ok());
  ASSERT_EQ(result_decoded.processes.size(), 1u);
  const ProcessTrace& out = result_decoded.processes[0];
  EXPECT_EQ(out.pid, 4242u);
  EXPECT_EQ(out.label, "shard7");
  EXPECT_EQ(out.unix_origin_micros, section.unix_origin_micros);
  EXPECT_EQ(out.dropped_spans, 3u);
  ASSERT_EQ(out.events.size(), 1u);
  EXPECT_EQ(out.events[0].name, "query.count");
  EXPECT_EQ(out.events[0].phase, 'X');
  EXPECT_EQ(out.events[0].dur_micros, 250u);
  EXPECT_EQ(out.events[0].trace_id, 0x77u);
  EXPECT_EQ(out.events[0].span_id, 0x78u);
  EXPECT_EQ(out.events[0].parent_span_id, 0x79u);
  EXPECT_EQ(out.events[0].args_json, "\"graph\":\"g\"");
}

TEST(Wire, TracePullResultRejectsHostileCounts) {
  // A claimed process/event count far beyond the payload size must fail
  // with Corruption instead of reserving gigabytes.
  std::string hostile;
  PutU32(&hostile, 0x7fffffff);  // processes
  TracePullResult decoded;
  EXPECT_EQ(DecodeTracePullResult(hostile, &decoded).code(),
            StatusCode::kCorruption);

  std::string hostile_events;
  PutU32(&hostile_events, 1);  // one process
  PutU64(&hostile_events, 1);  // pid
  PutString(&hostile_events, "p");
  PutU64(&hostile_events, 0);           // origin
  PutU64(&hostile_events, 0);           // dropped
  PutU32(&hostile_events, 0x7fffffff);  // events
  EXPECT_EQ(DecodeTracePullResult(hostile_events, &decoded).code(),
            StatusCode::kCorruption);
}

TEST(Wire, ListBatchRejectsHostileCounts) {
  // Four bytes claiming 2^32-1 records: the decoder must fail typed
  // instead of reserving (and aborting on) a multi-GB vector.
  const std::string probe("\xff\xff\xff\xff", 4);
  ListBatch decoded;
  EXPECT_EQ(DecodeListBatch(probe, &decoded).code(), StatusCode::kCorruption);

  // One well-formed record header whose w-count claims 2^32-1 entries.
  std::string hostile_k;
  PutU32(&hostile_k, 1);  // one record
  PutU32(&hostile_k, 7);  // u
  PutU32(&hostile_k, 9);  // v
  PutU32(&hostile_k, 0xFFFFFFFFu);  // k
  PutU32(&hostile_k, 11);  // a single w
  EXPECT_EQ(DecodeListBatch(hostile_k, &decoded).code(),
            StatusCode::kCorruption);
}

TEST(Wire, CountPrefixedFieldsAreBoundedByThePayload) {
  constexpr uint32_t kHuge = 0xFFFFFFFFu;
  std::string error;
  PutU32(&error, static_cast<uint32_t>(StatusCode::kUnavailable));
  PutString(&error, "degraded");
  PutU32(&error, kHuge);  // flight events
  ErrorResult error_out;
  EXPECT_EQ(DecodeError(error, &error_out).code(), StatusCode::kCorruption);

  std::string profile;
  PutU64(&profile, 1);     // triangles
  PutDouble(&profile, 0);  // seconds
  PutU32(&profile, 1);     // iterations
  for (int i = 0; i < 8; ++i) PutU64(&profile, 0);  // sampler counts
  PutU32(&profile, kHuge);  // role_samples
  ProfileResult profile_out;
  EXPECT_EQ(DecodeProfileResult(profile, &profile_out).code(),
            StatusCode::kCorruption);

  std::string histograms;
  PutString(&histograms, "text");
  PutU32(&histograms, kHuge);
  StatsResult stats_out;
  EXPECT_EQ(DecodeStatsResult(histograms, &stats_out).code(),
            StatusCode::kCorruption);
  std::string counters;
  PutString(&counters, "text");
  PutU32(&counters, 0);  // no histograms
  PutU32(&counters, kHuge);
  EXPECT_EQ(DecodeStatsResult(counters, &stats_out).code(),
            StatusCode::kCorruption);
}

TEST(Wire, PayloadReaderRejectsShortStrings) {
  std::string payload;
  PutU32(&payload, 100);  // claims 100 bytes, provides none
  PayloadReader reader(payload);
  std::string value;
  EXPECT_EQ(reader.GetString(&value).code(), StatusCode::kCorruption);
}

TEST(Wire, StatsResultRoundTrip) {
  StatsResult stats;
  stats.text = "scheduler.submitted=3\npool.lookups=10\n";
  stats.histograms.push_back(
      {"query.latency_us", 128, 3, 90000, 412.5, 210.0, 1800.0, 40000.0});
  stats.histograms.push_back(
      {"query.exec_us", 128, 1, 80000, 300.0, 150.0, 1500.0, 30000.0});
  stats.counters.push_back({"opt.internal.cache_hits", 77});
  stats.counters.push_back({"pool.fetch.hits", 41});
  StatsResult decoded;
  ASSERT_TRUE(DecodeStatsResult(EncodeStatsResult(stats), &decoded).ok());
  EXPECT_EQ(decoded.text, stats.text);
  ASSERT_EQ(decoded.histograms.size(), 2u);
  EXPECT_EQ(decoded.histograms[0].name, "query.latency_us");
  EXPECT_EQ(decoded.histograms[0].count, 128u);
  EXPECT_EQ(decoded.histograms[0].min, 3u);
  EXPECT_EQ(decoded.histograms[0].max, 90000u);
  EXPECT_DOUBLE_EQ(decoded.histograms[0].mean, 412.5);
  EXPECT_DOUBLE_EQ(decoded.histograms[0].p50, 210.0);
  EXPECT_DOUBLE_EQ(decoded.histograms[0].p95, 1800.0);
  EXPECT_DOUBLE_EQ(decoded.histograms[0].p99, 40000.0);
  ASSERT_EQ(decoded.counters.size(), 2u);
  EXPECT_EQ(decoded.counters[0].name, "opt.internal.cache_hits");
  EXPECT_EQ(decoded.counters[0].value, 77u);
  EXPECT_EQ(decoded.counters[1].name, "pool.fetch.hits");
  EXPECT_EQ(decoded.counters[1].value, 41u);
}

TEST(Wire, StatsResultTruncatedStructuredSectionIsCorruption) {
  StatsResult stats;
  stats.histograms.push_back({"h", 1, 1, 1, 1, 1, 1, 1});
  const std::string payload = EncodeStatsResult(stats);
  StatsResult decoded;
  const Status s =
      DecodeStatsResult(payload.substr(0, payload.size() - 4), &decoded);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------
// Shared buffer pool

TEST(SharedPool, PageKeysAreNamespacedByOwner) {
  BufferPool pool(64, 8);
  auto a = pool.Fetch(MakePageKey(1, 7));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->outcome, BufferPool::FetchOutcome::kMiss);
  pool.MarkValid({&a->frame, 1});
  // Same pid under a different owner is a distinct page.
  auto b = pool.Fetch(MakePageKey(2, 7));
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->outcome, BufferPool::FetchOutcome::kMiss);
  pool.MarkValid({&b->frame, 1});
  auto again = pool.Fetch(MakePageKey(1, 7));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->outcome, BufferPool::FetchOutcome::kHit);
  pool.Unpin({&a->frame, 1});
  pool.Unpin({&b->frame, 1});
  pool.Unpin({&again->frame, 1});
}

TEST(SharedPool, WaitValidWakesOnMarkFailed) {
  BufferPool pool(64, 4);
  auto miss = pool.Fetch(MakePageKey(1, 0));
  ASSERT_TRUE(miss.ok());
  ASSERT_EQ(miss->outcome, BufferPool::FetchOutcome::kMiss);
  auto waiter = pool.Fetch(MakePageKey(1, 0));
  ASSERT_TRUE(waiter.ok());
  ASSERT_EQ(waiter->outcome, BufferPool::FetchOutcome::kInFlight);
  std::thread failer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    pool.MarkFailed({&miss->frame, 1});
  });
  const Status s = pool.WaitValid(waiter->frame);
  EXPECT_FALSE(s.ok());
  failer.join();
  pool.Unpin({&miss->frame, 1});
  pool.Unpin({&waiter->frame, 1});
}

TEST(SharedPool, DropOwnerEvictsOnlyThatOwner) {
  BufferPool pool(64, 8);
  for (uint32_t pid = 0; pid < 3; ++pid) {
    auto r = pool.Fetch(MakePageKey(1, pid));
    ASSERT_TRUE(r.ok());
    pool.MarkValid({&r->frame, 1});
    pool.Unpin({&r->frame, 1});
    r = pool.Fetch(MakePageKey(2, pid));
    ASSERT_TRUE(r.ok());
    pool.MarkValid({&r->frame, 1});
    pool.Unpin({&r->frame, 1});
  }
  pool.DropOwner(1);
  auto gone = pool.Fetch(MakePageKey(1, 0));
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone->outcome, BufferPool::FetchOutcome::kMiss);
  pool.MarkValid({&gone->frame, 1});
  pool.Unpin({&gone->frame, 1});
  auto kept = pool.Fetch(MakePageKey(2, 0));
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->outcome, BufferPool::FetchOutcome::kHit);
  pool.Unpin({&kept->frame, 1});
}

TEST(SharedPool, StatsSnapshotAndReset) {
  BufferPool pool(64, 4);
  auto r = pool.Fetch(MakePageKey(1, 0));
  ASSERT_TRUE(r.ok());
  pool.MarkValid({&r->frame, 1});
  pool.Unpin({&r->frame, 1});
  auto hit = pool.Fetch(MakePageKey(1, 0));
  ASSERT_TRUE(hit.ok());
  pool.Unpin({&hit->frame, 1});
  const PoolStatsSnapshot before = pool.stats().Snapshot();
  EXPECT_EQ(before.lookups, 2u);
  EXPECT_EQ(before.hits, 1u);
  pool.stats().Reset();
  const PoolStatsSnapshot after = pool.stats().Snapshot();
  EXPECT_EQ(after.lookups, 0u);
  EXPECT_EQ(after.hits, 0u);
}

// ---------------------------------------------------------------------
// Graph registry

TEST(GraphRegistry, LoadAcquireList) {
  CSRGraph g = GenerateErdosRenyi(100, 500, 11);
  const std::string path = testutil::CreateStore(g, Env::Default(), "reg");
  GraphRegistry registry(Env::Default());
  EXPECT_EQ(registry.pool(), nullptr);
  ASSERT_TRUE(registry.LoadGraph("g1", path).ok());
  ASSERT_NE(registry.pool(), nullptr);
  auto handle = registry.Acquire("g1");
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle->name, "g1");
  EXPECT_EQ(handle->store->num_vertices(), 100u);
  EXPECT_FALSE(registry.Acquire("nope").ok());
  const auto infos = registry.List();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].name, "g1");
  EXPECT_EQ(infos[0].num_vertices, 100u);
}

TEST(GraphRegistry, ReloadBumpsEpochAndKeepsOldHandleAlive) {
  CSRGraph g = GenerateErdosRenyi(80, 400, 3);
  const std::string path1 = testutil::CreateStore(g, Env::Default(), "re1");
  const std::string path2 = testutil::CreateStore(g, Env::Default(), "re2");
  GraphRegistry registry(Env::Default());
  ASSERT_TRUE(registry.LoadGraph("g", path1).ok());
  auto old_handle = registry.Acquire("g");
  ASSERT_TRUE(old_handle.ok());
  ASSERT_TRUE(registry.LoadGraph("g", path2).ok());
  auto new_handle = registry.Acquire("g");
  ASSERT_TRUE(new_handle.ok());
  EXPECT_GT(new_handle->epoch, old_handle->epoch);
  EXPECT_NE(new_handle->owner, old_handle->owner);
  // The replaced store stays usable through the old pin.
  EXPECT_EQ(old_handle->store->num_vertices(), 80u);
}

TEST(GraphRegistry, RejectsMismatchedPageSize) {
  CSRGraph g = GenerateErdosRenyi(50, 200, 9);
  const std::string p256 =
      testutil::CreateStore(g, Env::Default(), "ps256", 256);
  const std::string p512 =
      testutil::CreateStore(g, Env::Default(), "ps512", 512);
  GraphRegistry registry(Env::Default());
  ASSERT_TRUE(registry.LoadGraph("a", p256).ok());
  const Status s = registry.LoadGraph("b", p512);
  EXPECT_EQ(s.code(), StatusCode::kNotSupported);
}

// ---------------------------------------------------------------------
// Result cache

TEST(ResultCache, InsertLookupInvalidate) {
  ResultCache cache(8);
  EXPECT_FALSE(cache.Lookup("k").has_value());
  cache.Insert("k", "g1", {42, 0.5, 1});
  auto hit = cache.Lookup("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->triangles, 42u);
  cache.InvalidateGraph("g1");
  EXPECT_FALSE(cache.Lookup("k").has_value());
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(ResultCache, EvictsOldestPastCapacity) {
  ResultCache cache(2);
  cache.Insert("a", "g", {1, 0, 1});
  cache.Insert("b", "g", {2, 0, 1});
  cache.Insert("c", "g", {3, 0, 1});
  EXPECT_FALSE(cache.Lookup("a").has_value());
  EXPECT_TRUE(cache.Lookup("b").has_value());
  EXPECT_TRUE(cache.Lookup("c").has_value());
  EXPECT_EQ(cache.size(), 2u);
}

// ---------------------------------------------------------------------
// Scheduler

struct ServiceFixture {
  CSRGraph g1 = GenerateErdosRenyi(300, 3000, 42);
  CSRGraph g2 = GenerateErdosRenyi(250, 2500, 43);
  uint64_t oracle1 = testutil::OracleCount(g1);
  uint64_t oracle2 = testutil::OracleCount(g2);
  GraphRegistry registry;
  QueryScheduler scheduler;

  explicit ServiceFixture(Env* env, SchedulerOptions options = {})
      : registry(env), scheduler(&registry, options) {
    Status s = scheduler.LoadGraph(
        "g1", testutil::CreateStore(g1, env, "fix1"));
    EXPECT_TRUE(s.ok()) << s.ToString();
    s = scheduler.LoadGraph("g2", testutil::CreateStore(g2, env, "fix2"));
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
};

TEST(QueryScheduler, CountMatchesOracle) {
  ServiceFixture fix(Env::Default());
  QuerySpec spec;
  spec.graph = "g1";
  const QueryResult result = fix.scheduler.Run(spec);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.triangles, fix.oracle1);
  EXPECT_EQ(result.source, ResultSource::kExecuted);
}

TEST(QueryScheduler, UnknownGraphFailsFast) {
  ServiceFixture fix(Env::Default());
  QuerySpec spec;
  spec.graph = "missing";
  const QueryResult result = fix.scheduler.Run(spec);
  EXPECT_EQ(result.status.code(), StatusCode::kNotFound);
}

TEST(QueryScheduler, ListRequiresSink) {
  ServiceFixture fix(Env::Default());
  QuerySpec spec;
  spec.graph = "g1";
  spec.kind = QueryKind::kList;
  const QueryResult result = fix.scheduler.Run(spec);
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
}

TEST(QueryScheduler, SecondIdenticalQueryHitsCache) {
  ServiceFixture fix(Env::Default());
  QuerySpec spec;
  spec.graph = "g2";
  const QueryResult first = fix.scheduler.Run(spec);
  ASSERT_TRUE(first.status.ok());
  EXPECT_EQ(first.source, ResultSource::kExecuted);
  const QueryResult second = fix.scheduler.Run(spec);
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(second.source, ResultSource::kCache);
  EXPECT_EQ(second.triangles, fix.oracle2);
  EXPECT_EQ(fix.scheduler.stats().cache_hits, 1u);
}

TEST(QueryScheduler, SecondQueryObservesSharedPoolHits) {
  SchedulerOptions options;
  options.enable_result_cache = false;  // force a real second run
  ServiceFixture fix(Env::Default(), options);
  QuerySpec spec;
  spec.graph = "g1";
  spec.memory_pages = 512;  // roomy: the whole graph stays resident
  const QueryResult first = fix.scheduler.Run(spec);
  ASSERT_TRUE(first.status.ok());
  EXPECT_EQ(first.triangles, fix.oracle1);
  const QueryResult second = fix.scheduler.Run(spec);
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(second.triangles, fix.oracle1);
  // The second run finds the first run's pages in the shared pool.
  EXPECT_GT(second.pool_hits, 0u);
  EXPECT_LT(second.pages_read, first.pages_read);
}

TEST(QueryScheduler, ConcurrentMixedQueriesAcrossTwoGraphs) {
  SchedulerOptions options;
  options.workers = 4;
  options.max_queue = 256;
  options.enable_result_cache = false;
  ServiceFixture fix(Env::Default(), options);
  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const bool use_g1 = (c + q) % 2 == 0;
        QuerySpec spec;
        spec.graph = use_g1 ? "g1" : "g2";
        // Vary the budget so requests do not all coalesce.
        spec.memory_pages = 64 + 32 * (q % 3);
        CountingSink sink;
        if (q % 3 == 0) {
          spec.kind = QueryKind::kList;
          spec.list_sink = &sink;
        }
        const QueryResult result = fix.scheduler.Run(spec);
        const uint64_t expected = use_g1 ? fix.oracle1 : fix.oracle2;
        if (!result.status.ok() || result.triangles != expected) {
          ++failures;
          continue;
        }
        if (spec.kind == QueryKind::kList && sink.count() != expected) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  const SchedulerStats stats = fix.scheduler.stats();
  EXPECT_EQ(stats.completed, uint64_t{kClients * kQueriesPerClient});
  EXPECT_EQ(stats.failed, 0u);
}

TEST(QueryScheduler, DuplicateCountsCoalesce) {
  // One worker + high read latency: the first query occupies the worker
  // while duplicates pile up; they must attach to the queued run, not
  // execute again.
  ThrottledEnv slow(Env::Default(), /*read_latency_micros=*/200);
  SchedulerOptions options;
  options.workers = 1;
  options.enable_result_cache = false;
  ServiceFixture fix(&slow, options);
  QuerySpec spec;
  spec.graph = "g1";
  std::vector<std::shared_future<QueryResult>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(fix.scheduler.Submit(spec));
  int executed = 0, coalesced = 0;
  for (auto& future : futures) {
    const QueryResult result = future.get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.triangles, fix.oracle1);
    if (result.source == ResultSource::kExecuted) ++executed;
    if (result.source == ResultSource::kCoalesced) ++coalesced;
  }
  // At least the very first submission runs; later ones may attach to
  // either in-flight run, but every coalesced waiter saves a full run.
  EXPECT_GE(coalesced, 1);
  EXPECT_GE(executed, 1);
  EXPECT_EQ(executed + coalesced, 6);
  EXPECT_GE(fix.scheduler.stats().coalesced, 1u);
  EXPECT_LT(fix.scheduler.stats().executed, 6u);
}

TEST(QueryScheduler, DeadlineExpiresQueuedQuery) {
  ThrottledEnv slow(Env::Default(), /*read_latency_micros=*/500);
  SchedulerOptions options;
  options.workers = 1;
  options.enable_result_cache = false;
  ServiceFixture fix(&slow, options);
  QuerySpec blocker;
  blocker.graph = "g1";
  auto blocker_future = fix.scheduler.Submit(blocker);
  QuerySpec hopeless;
  hopeless.graph = "g2";
  hopeless.deadline_millis = 1;  // expires while queued behind blocker
  const QueryResult expired = fix.scheduler.Run(hopeless);
  EXPECT_EQ(expired.status.code(), StatusCode::kAborted);
  const QueryResult blocked = blocker_future.get();
  EXPECT_TRUE(blocked.status.ok()) << blocked.status.ToString();
  EXPECT_GE(fix.scheduler.stats().deadline_expired, 1u);
}

TEST(QueryScheduler, AdmissionQueueRejectsOverflow) {
  ThrottledEnv slow(Env::Default(), /*read_latency_micros=*/500);
  SchedulerOptions options;
  options.workers = 1;
  options.max_queue = 2;
  options.enable_result_cache = false;
  ServiceFixture fix(&slow, options);
  std::vector<std::shared_future<QueryResult>> futures;
  // Distinct memory_pages defeat coalescing, so each submission needs
  // its own queue slot.
  for (int i = 0; i < 8; ++i) {
    QuerySpec spec;
    spec.graph = "g1";
    spec.memory_pages = 32 + i;
    futures.push_back(fix.scheduler.Submit(spec));
  }
  int rejected = 0;
  for (auto& future : futures) {
    if (future.get().status.code() == StatusCode::kResourceExhausted) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(fix.scheduler.stats().rejected,
            static_cast<uint64_t>(rejected));
}

TEST(QueryScheduler, ReloadInvalidatesCacheAndAnswersFresh) {
  Env* env = Env::Default();
  CSRGraph small = GenerateErdosRenyi(60, 200, 7);
  CSRGraph big = GenerateErdosRenyi(200, 2400, 8);
  const uint64_t oracle_small = testutil::OracleCount(small);
  const uint64_t oracle_big = testutil::OracleCount(big);
  GraphRegistry registry(env);
  QueryScheduler scheduler(&registry, {});
  ASSERT_TRUE(
      scheduler.LoadGraph("g", testutil::CreateStore(small, env, "inv1")).ok());
  QuerySpec spec;
  spec.graph = "g";
  const QueryResult first = scheduler.Run(spec);
  ASSERT_TRUE(first.status.ok());
  EXPECT_EQ(first.triangles, oracle_small);
  ASSERT_TRUE(scheduler.Run(spec).source == ResultSource::kCache);
  ASSERT_TRUE(
      scheduler.LoadGraph("g", testutil::CreateStore(big, env, "inv2")).ok());
  const QueryResult after = scheduler.Run(spec);
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.triangles, oracle_big);
  EXPECT_NE(after.source, ResultSource::kCache);
  EXPECT_GT(after.epoch, first.epoch);
}

TEST(QueryScheduler, InjectedReadFaultsFailQueriesNotProcess) {
  FaultInjectingEnv faulty(Env::Default(), testutil::EveryReadFails());
  faulty.set_enabled(false);
  SchedulerOptions options;
  options.enable_result_cache = false;
  ServiceFixture fix(&faulty, options);
  QuerySpec spec;
  spec.graph = "g1";
  const QueryResult healthy = fix.scheduler.Run(spec);
  ASSERT_TRUE(healthy.status.ok());
  faulty.set_enabled(true);
  const QueryResult hurt = fix.scheduler.Run(spec);
  EXPECT_FALSE(hurt.status.ok());
  faulty.set_enabled(false);
  const QueryResult recovered = fix.scheduler.Run(spec);
  ASSERT_TRUE(recovered.status.ok()) << recovered.status.ToString();
  EXPECT_EQ(recovered.triangles, fix.oracle1);
}

TEST(QueryScheduler, DegradedQueryCarriesItsFlightRecorderTail) {
  FaultInjectingEnv faulty(Env::Default(), testutil::EveryReadFails());
  faulty.set_enabled(false);
  SchedulerOptions options;
  options.enable_result_cache = false;
  ServiceFixture fix(&faulty, options);
  faulty.set_enabled(true);
  QuerySpec spec;
  spec.graph = "g1";
  const QueryResult hurt = fix.scheduler.Run(spec);
  faulty.set_enabled(false);
  ASSERT_FALSE(hurt.status.ok());
  EXPECT_TRUE(hurt.degraded);
  ASSERT_FALSE(hurt.flight_events.empty());
  // The tail must end with the degrade transition itself, preceded by
  // the I/O events that caused it.
  EXPECT_EQ(hurt.flight_events.back().type, FlightEventType::kDegrade);
  bool saw_io_failure = false;
  for (const FlightEvent& event : hurt.flight_events) {
    if (event.type == FlightEventType::kIoGiveup ||
        event.type == FlightEventType::kIoError) {
      saw_io_failure = true;
    }
  }
  EXPECT_TRUE(saw_io_failure);
  // Healthy queries carry no tail.
  const QueryResult healthy = fix.scheduler.Run(spec);
  ASSERT_TRUE(healthy.status.ok()) << healthy.status.ToString();
  EXPECT_TRUE(healthy.flight_events.empty());
}

TEST(QueryScheduler, ProfiledQueryReturnsOverlapReportAndSkipsCache) {
  ServiceFixture fix(Env::Default());
  QuerySpec spec;
  spec.graph = "g1";
  spec.profile = true;
  const QueryResult first = fix.scheduler.Run(spec);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_EQ(first.triangles, fix.oracle1);
  ASSERT_TRUE(first.profiled);
  EXPECT_GT(first.overlap.samples, 0u);
  EXPECT_LE(first.overlap.MicroOverlapFraction(), 1.0);
  EXPECT_LE(first.overlap.MacroOverlapFraction(), 1.0);
  EXPECT_GT(first.overlap.cost.measured_seconds, 0.0);
  // A profiled rerun measures a fresh run instead of answering from the
  // result cache.
  const QueryResult second = fix.scheduler.Run(spec);
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(second.source, ResultSource::kExecuted);
  EXPECT_TRUE(second.profiled);
}

// ---------------------------------------------------------------------
// End-to-end over sockets

TEST(OptServer, EndToEndConcurrentClients) {
  Env* env = Env::Default();
  CSRGraph g1 = GenerateErdosRenyi(300, 3000, 21);
  CSRGraph g2 = GenerateErdosRenyi(250, 2500, 22);
  const uint64_t oracle1 = testutil::OracleCount(g1);
  const uint64_t oracle2 = testutil::OracleCount(g2);
  const std::string path1 = testutil::CreateStore(g1, env, "srv1");
  const std::string path2 = testutil::CreateStore(g2, env, "srv2");

  GraphRegistry registry(env);
  SchedulerOptions options;
  options.workers = 4;
  options.max_queue = 256;
  QueryScheduler scheduler(&registry, options);
  ASSERT_TRUE(scheduler.LoadGraph("g1", path1).ok());

  OptServer server(&scheduler);
  ASSERT_TRUE(server.ListenTcp(0).ok());
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.bound_port();

  // g2 arrives over the wire.
  {
    OptClient admin;
    ASSERT_TRUE(admin.ConnectTcp("127.0.0.1", port).ok());
    ASSERT_TRUE(admin.LoadGraph("g2", path2).ok());
    auto missing = admin.Count("never-loaded");
    EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  }

  constexpr int kClients = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      OptClient client;
      if (!client.ConnectTcp("127.0.0.1", port).ok()) {
        ++failures;
        return;
      }
      for (int q = 0; q < 4; ++q) {
        const bool use_g1 = (c + q) % 2 == 0;
        const std::string graph = use_g1 ? "g1" : "g2";
        const uint64_t expected = use_g1 ? oracle1 : oracle2;
        if (q % 2 == 0) {
          auto result = client.Count(graph);
          if (!result.ok() || result->triangles != expected) {
            ++failures;
          }
        } else {
          uint64_t streamed = 0;
          auto end = client.List(graph, [&](const ListBatch& batch) {
            for (const auto& record : batch.records) {
              streamed += record.ws.size();
            }
          });
          if (!end.ok() || end->triangles != expected ||
              streamed != expected) {
            ++failures;
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  OptClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", port).ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("scheduler.completed="), std::string::npos);
  EXPECT_NE(stats->find("pool.frames="), std::string::npos);
  EXPECT_NE(stats->find("graph.g2.vertices=250"), std::string::npos);

  server.Stop();
}

TEST(OptServer, UnixSocketCountAndDisabledLoadGraph) {
  Env* env = Env::Default();
  CSRGraph g = GenerateErdosRenyi(120, 900, 33);
  const uint64_t oracle = testutil::OracleCount(g);
  const std::string path = testutil::CreateStore(g, env, "unix");
  GraphRegistry registry(env);
  QueryScheduler scheduler(&registry, {});
  ASSERT_TRUE(scheduler.LoadGraph("g", path).ok());
  OptServer server(&scheduler, /*allow_load_graph=*/false);
  const std::string socket_path =
      testutil::ProcessTempDir() + "/opt_service_test.sock";
  ASSERT_TRUE(server.ListenUnix(socket_path).ok());
  ASSERT_TRUE(server.Start().ok());

  OptClient client;
  ASSERT_TRUE(client.ConnectUnix(socket_path).ok());
  auto result = client.Count("g");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->triangles, oracle);
  EXPECT_EQ(client.LoadGraph("x", path).code(),
            StatusCode::kNotSupported);
  // The connection survives an error reply.
  auto again = client.Count("g");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->triangles, oracle);
  server.Stop();
}

TEST(OptServer, ProfileQueryReturnsOverlapReportOverTheWire) {
  Env* env = Env::Default();
  CSRGraph g = GenerateErdosRenyi(300, 3000, 55);
  const uint64_t oracle = testutil::OracleCount(g);
  GraphRegistry registry(env);
  QueryScheduler scheduler(&registry, {});
  ASSERT_TRUE(
      scheduler.LoadGraph("g", testutil::CreateStore(g, env, "profsrv")).ok());
  OptServer server(&scheduler);
  ASSERT_TRUE(server.ListenTcp(0).ok());
  ASSERT_TRUE(server.Start().ok());

  OptClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", server.bound_port()).ok());
  auto profile = client.Profile("g");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_EQ(profile->triangles, oracle);
  EXPECT_GT(profile->samples, 0u);
  EXPECT_LE(profile->micro_overlap, 1.0);
  EXPECT_LE(profile->macro_overlap, 1.0);
  EXPECT_EQ(profile->role_samples.size(), kNumThreadRoles);
  EXPECT_GT(profile->cost_measured_seconds, 0.0);
  // The connection stays usable for a plain COUNT afterwards.
  auto count = client.Count("g");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->triangles, oracle);
  server.Stop();
}

TEST(OptServer, DegradedQueryShipsFlightRecorderTailOverTheWire) {
  FaultInjectingEnv faulty(Env::Default(), testutil::EveryReadFails());
  faulty.set_enabled(false);
  CSRGraph g = GenerateErdosRenyi(300, 3000, 56);
  GraphRegistry registry(&faulty);
  SchedulerOptions options;
  options.enable_result_cache = false;
  QueryScheduler scheduler(&registry, options);
  ASSERT_TRUE(scheduler
                  .LoadGraph("g", testutil::CreateStore(g, &faulty, "degsrv"))
                  .ok());
  OptServer server(&scheduler);
  ASSERT_TRUE(server.ListenTcp(0).ok());
  ASSERT_TRUE(server.Start().ok());

  OptClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", server.bound_port()).ok());
  faulty.set_enabled(true);
  auto hurt = client.Count("g");
  faulty.set_enabled(false);
  ASSERT_FALSE(hurt.ok());
  EXPECT_EQ(hurt.status().code(), StatusCode::kUnavailable);
  // The ERROR frame carried the query's own postmortem.
  const std::vector<FlightEvent>& events = client.last_error_events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().type, FlightEventType::kDegrade);
  // A healthy request on the same connection clears the stashed tail.
  auto healed = client.Count("g");
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_TRUE(client.last_error_events().empty());
  server.Stop();
}

// ---------------------------------------------------------------------
// Streaming deltas over the wire

TEST(Wire, MutateRequestRoundTrip) {
  MutateRequest request;
  request.graph = "stream-graph";
  request.edges = {{1, 2}, {7, 3}, {0, 4100000}};
  MutateRequest decoded;
  ASSERT_TRUE(
      DecodeMutateRequest(EncodeMutateRequest(request), &decoded).ok());
  EXPECT_EQ(decoded.graph, request.graph);
  EXPECT_EQ(decoded.edges, request.edges);
}

TEST(Wire, MutateRequestRejectsCountBeyondPayload) {
  // The edge count is attacker-controlled: a tiny frame claiming 2^32-1
  // edges must fail the decode up front (typed, no multi-GB reserve),
  // and a merely-inflated count must fail the same way.
  std::string huge;
  PutString(&huge, "g");
  PutU32(&huge, 0xFFFFFFFFu);
  PutU32(&huge, 1);  // a single half-edge of trailing bytes
  MutateRequest decoded;
  Status status = DecodeMutateRequest(huge, &decoded);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
      << status.ToString();

  std::string inflated;
  PutString(&inflated, "g");
  PutU32(&inflated, 3);  // claims 3 edges, carries 1
  PutU32(&inflated, 1);
  PutU32(&inflated, 2);
  status = DecodeMutateRequest(inflated, &decoded);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
      << status.ToString();
}

TEST(Wire, MutateResultRoundTripWithNegativeDeltas) {
  MutateResult result;
  result.epoch = 17;
  result.batch_triangle_delta = -12345;
  result.total_triangle_delta = -67890;
  result.edges_applied = 64;
  result.seconds = 0.0625;
  result.approx_valid = 1;
  result.approx_triangles = 1234.5;
  MutateResult decoded;
  ASSERT_TRUE(
      DecodeMutateResult(EncodeMutateResult(result), &decoded).ok());
  EXPECT_EQ(decoded.epoch, result.epoch);
  EXPECT_EQ(decoded.batch_triangle_delta, result.batch_triangle_delta);
  EXPECT_EQ(decoded.total_triangle_delta, result.total_triangle_delta);
  EXPECT_EQ(decoded.edges_applied, result.edges_applied);
  EXPECT_EQ(decoded.seconds, result.seconds);
  EXPECT_EQ(decoded.approx_valid, result.approx_valid);
  EXPECT_EQ(decoded.approx_triangles, result.approx_triangles);
}

TEST(Wire, SubscribeCountRequestRoundTrip) {
  SubscribeCountRequest request;
  request.graph = "g";
  request.after_epoch = 41;
  request.timeout_millis = 2500;
  SubscribeCountRequest decoded;
  ASSERT_TRUE(DecodeSubscribeCountRequest(
                  EncodeSubscribeCountRequest(request), &decoded)
                  .ok());
  EXPECT_EQ(decoded.graph, request.graph);
  EXPECT_EQ(decoded.after_epoch, request.after_epoch);
  EXPECT_EQ(decoded.timeout_millis, request.timeout_millis);
}

TEST(Wire, SubscribeCountResultRoundTrip) {
  SubscribeCountResult result;
  result.epoch = 99;
  result.timed_out = 1;
  result.exact_known = 1;
  result.triangles = 123456789ull;
  result.delta_triangles = -42;
  result.edges_added = 7;
  result.edges_removed = 3;
  result.approx_valid = 1;
  result.approx_triangles = 98765.25;
  SubscribeCountResult decoded;
  ASSERT_TRUE(DecodeSubscribeCountResult(
                  EncodeSubscribeCountResult(result), &decoded)
                  .ok());
  EXPECT_EQ(decoded.epoch, result.epoch);
  EXPECT_EQ(decoded.timed_out, result.timed_out);
  EXPECT_EQ(decoded.exact_known, result.exact_known);
  EXPECT_EQ(decoded.triangles, result.triangles);
  EXPECT_EQ(decoded.delta_triangles, result.delta_triangles);
  EXPECT_EQ(decoded.edges_added, result.edges_added);
  EXPECT_EQ(decoded.edges_removed, result.edges_removed);
  EXPECT_EQ(decoded.approx_valid, result.approx_valid);
  EXPECT_EQ(decoded.approx_triangles, result.approx_triangles);
}

TEST(OptServer, StreamingMutationsEndToEnd) {
  Env* env = Env::Default();
  // K4 minus {2,3}: 2 triangles; adding {2,3} closes 2 more.
  CSRGraph g = GraphBuilder::FromEdges({{0, 1}, {0, 2}, {0, 3}, {1, 2},
                                        {1, 3}});
  const std::string path = testutil::CreateStore(g, env, "mut_e2e");
  GraphRegistry registry(env);
  QueryScheduler scheduler(&registry, {});
  ASSERT_TRUE(scheduler.LoadGraph("g", path).ok());
  OptServer server(&scheduler);
  ASSERT_TRUE(server.ListenTcp(0).ok());
  ASSERT_TRUE(server.Start().ok());

  OptClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", server.bound_port()).ok());
  auto base = client.Count("g");
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->triangles, 2u);

  // Typed rejections ride the wire as InvalidArgument; the batch is all
  // or nothing, so state (epoch, count) is untouched even when valid
  // edges precede the bad one.
  auto self_loop = client.AddEdges("g", {{1, 1}});
  EXPECT_EQ(self_loop.status().code(), StatusCode::kInvalidArgument);
  auto duplicate = client.AddEdges("g", {{2, 3}, {3, 2}});
  EXPECT_EQ(duplicate.status().code(), StatusCode::kInvalidArgument);
  auto mixed = client.AddEdges("g", {{2, 3}, {0, 1}});
  EXPECT_EQ(mixed.status().code(), StatusCode::kInvalidArgument);
  auto absent = client.RemoveEdges("g", {{2, 3}});
  EXPECT_EQ(absent.status().code(), StatusCode::kInvalidArgument);
  auto snap0 = client.SubscribeCount("g", 0, 0);
  ASSERT_TRUE(snap0.ok()) << snap0.status().ToString();
  EXPECT_EQ(snap0->delta_triangles, 0);
  EXPECT_EQ(snap0->edges_added, 0u);
  ASSERT_TRUE(snap0->exact_known);
  EXPECT_EQ(snap0->triangles, 2u);
  const uint64_t epoch0 = snap0->epoch;

  // A valid batch bumps the epoch and COUNT folds the delta in.
  auto added = client.AddEdges("g", {{2, 3}});
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_GT(added->epoch, epoch0);
  EXPECT_EQ(added->batch_triangle_delta, 2);
  EXPECT_EQ(added->edges_applied, 1u);
  auto counted = client.Count("g");
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted->triangles, 4u);

  // LIST refuses while the overlay is dirty; COUNT stays exact.
  auto dirty_list = client.List("g", [](const ListBatch&) {});
  EXPECT_EQ(dirty_list.status().code(), StatusCode::kNotSupported);

  // Long-poll: a concurrent mutation wakes the subscriber with the new
  // epoch and the already-folded exact total.
  std::thread mutator([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    OptClient writer;
    ASSERT_TRUE(
        writer.ConnectTcp("127.0.0.1", server.bound_port()).ok());
    auto removed = writer.RemoveEdges("g", {{2, 3}});
    EXPECT_TRUE(removed.ok()) << removed.status().ToString();
  });
  auto woken = client.SubscribeCount("g", added->epoch, 10000);
  mutator.join();
  ASSERT_TRUE(woken.ok()) << woken.status().ToString();
  EXPECT_FALSE(woken->timed_out);
  EXPECT_GT(woken->epoch, added->epoch);
  EXPECT_EQ(woken->delta_triangles, 0);
  ASSERT_TRUE(woken->exact_known);
  EXPECT_EQ(woken->triangles, 2u);

  // Add-then-remove restored the base: LIST works again and the answer
  // matches the original.
  uint64_t streamed = 0;
  auto list_end = client.List("g", [&](const ListBatch& batch) {
    for (const auto& record : batch.records) streamed += record.ws.size();
  });
  ASSERT_TRUE(list_end.ok()) << list_end.status().ToString();
  EXPECT_EQ(streamed, 2u);

  // The delta apply latency histogram is visible through STATS.
  auto stats = client.StatsFull();
  ASSERT_TRUE(stats.ok());
  bool saw_delta_hist = false;
  for (const auto& histogram : stats->histograms) {
    if (histogram.name == "delta.apply_us" && histogram.count > 0) {
      saw_delta_hist = true;
    }
  }
  EXPECT_TRUE(saw_delta_hist);
  EXPECT_NE(stats->text.find("graph.g.delta_edges_added=0"),
            std::string::npos);
  server.Stop();
}

TEST(OptServer, MutationsCanBeDisabled) {
  Env* env = Env::Default();
  CSRGraph g = GenerateErdosRenyi(40, 120, 91);
  GraphRegistry registry(env);
  QueryScheduler scheduler(&registry, {});
  ASSERT_TRUE(
      scheduler.LoadGraph("g", testutil::CreateStore(g, env, "romut")).ok());
  OptServer server(&scheduler, /*allow_load_graph=*/true,
                   /*allow_mutations=*/false);
  ASSERT_TRUE(server.ListenTcp(0).ok());
  ASSERT_TRUE(server.Start().ok());
  OptClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", server.bound_port()).ok());
  EXPECT_EQ(client.AddEdges("g", {{0, 1}}).status().code(),
            StatusCode::kNotSupported);
  EXPECT_EQ(client.RemoveEdges("g", {{0, 1}}).status().code(),
            StatusCode::kNotSupported);
  // SUBSCRIBE_COUNT is a read op and stays available; with mutations
  // off the epoch only moves on reload.
  auto snapshot = client.SubscribeCount("g", 0, 0);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->edges_added, 0u);
  // The connection survives and plain queries still work.
  auto count = client.Count("g");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  server.Stop();
}

TEST(OptServer, SubscribePrimesBaseCountInBackground) {
  Env* env = Env::Default();
  CSRGraph g = GraphBuilder::FromEdges({{0, 1}, {0, 2}, {0, 3}, {1, 2},
                                        {1, 3}});
  GraphRegistry registry(env);
  QueryScheduler scheduler(&registry, {});
  ASSERT_TRUE(
      scheduler.LoadGraph("g", testutil::CreateStore(g, env, "prime")).ok());
  OptServer server(&scheduler);
  ASSERT_TRUE(server.ListenTcp(0).ok());
  ASSERT_TRUE(server.Start().ok());
  OptClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", server.bound_port()).ok());

  // No COUNT has run yet: the subscribe returns without paying a full
  // count's latency on the connection thread and schedules the base
  // count in the background instead of blocking on it.
  auto first = client.SubscribeCount("g", 0, 0);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->delta_triangles, 0);

  // The primed base becomes visible to a later subscribe.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    auto snap = client.SubscribeCount("g", 0, 0);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    if (snap->exact_known) {
      EXPECT_EQ(snap->triangles, 2u);
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "background prime never recorded the base count";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server.Stop();
}

}  // namespace
}  // namespace opt
