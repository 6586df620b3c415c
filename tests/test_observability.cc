// Observability-layer tests: metrics registry semantics, Prometheus
// exposition (name sanitization, label escaping, windowed rates, the
// HTTP scrape endpoint), trace recorder JSON output (syntactic validity
// + span nesting per thread), distributed-trace assembly, and the
// scheduler's slow-query log with [trace=...] correlation tags.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "graph/builder.h"
#include "obs/metrics_http.h"
#include "service/graph_registry.h"
#include "service/query_scheduler.h"
#include "storage/env.h"
#include "storage/graph_store.h"
#include "test_helpers.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace opt {
namespace {

// ---------------------------------------------------------------------
// Metrics registry

TEST(MetricsRegistry, LookupsReturnStablePointersPerName) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("reg.test.counter");
  Counter* b = registry.GetCounter("reg.test.counter");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, registry.GetCounter("reg.test.other"));
  EXPECT_EQ(registry.GetGauge("reg.test.gauge"),
            registry.GetGauge("reg.test.gauge"));
  EXPECT_EQ(registry.GetHistogram("reg.test.hist"),
            registry.GetHistogram("reg.test.hist"));
}

TEST(MetricsRegistry, CountersAccumulateAcrossThreads) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("mt.counter");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < 1000; ++i) counter->Increment();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter->value(), 4000u);
}

TEST(MetricsRegistry, ExposeTextCoversEveryKindSorted) {
  MetricsRegistry registry;
  registry.GetCounter("b.counter")->Increment(3);
  registry.GetGauge("a.gauge")->Set(-7);
  registry.GetHistogram("c.hist")->Record(10);
  registry.GetHistogram("c.hist")->Record(1000);
  const std::string text = registry.ExposeText();
  EXPECT_NE(text.find("b.counter=3\n"), std::string::npos) << text;
  EXPECT_NE(text.find("a.gauge=-7\n"), std::string::npos) << text;
  EXPECT_NE(text.find("c.hist.count=2\n"), std::string::npos) << text;
  EXPECT_NE(text.find("c.hist.min=10\n"), std::string::npos) << text;
  EXPECT_NE(text.find("c.hist.max=1000\n"), std::string::npos) << text;
  EXPECT_NE(text.find("c.hist.p50="), std::string::npos) << text;
  EXPECT_NE(text.find("c.hist.p99="), std::string::npos) << text;
}

TEST(MetricsRegistry, ResetAllZeroesCountersAndHistogramsOnly) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("r.counter");
  Gauge* gauge = registry.GetGauge("r.gauge");
  HistogramMetric* hist = registry.GetHistogram("r.hist");
  counter->Increment(5);
  gauge->Set(11);
  hist->Record(99);
  registry.ResetAll();
  EXPECT_EQ(counter->value(), 0u);
  EXPECT_EQ(gauge->value(), 11);  // gauges describe current state
  EXPECT_EQ(hist->Snapshot().count, 0u);
}

TEST(MetricsRegistry, GlobalRegistryIsProcessWide) {
  Counter* a = Metrics().GetCounter("global.smoke");
  Counter* b = Metrics().GetCounter("global.smoke");
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------
// Prometheus exposition

TEST(Prometheus, SanitizeMetricNameProducesLegalIdentifiers) {
  // Dotted/dashed internal names map onto [a-zA-Z_:][a-zA-Z0-9_:]*.
  EXPECT_EQ(SanitizeMetricName("pool.fetch.hits"), "pool_fetch_hits");
  EXPECT_EQ(SanitizeMetricName("graph.g.rmat-20.vertices"),
            "graph_g_rmat_20_vertices");
  EXPECT_EQ(SanitizeMetricName("9lives"), "_9lives");
  EXPECT_EQ(SanitizeMetricName("ok_name:sub"), "ok_name:sub");
  EXPECT_EQ(SanitizeMetricName("spaces and/slashes"),
            "spaces_and_slashes");
  // Idempotent: sanitizing a sanitized name is a no-op.
  const std::string once = SanitizeMetricName("a.b-c d");
  EXPECT_EQ(SanitizeMetricName(once), once);
}

TEST(Prometheus, LabelValueEscapeRoundTrips) {
  const std::vector<std::string> values = {
      "",
      "g",
      "g.rmat-20",
      "quote\"inside",
      "back\\slash",
      "line\nbreak",
      "all\\three\"at\nonce",
      "trailing\\",
  };
  for (const std::string& value : values) {
    const std::string escaped = EscapeLabelValue(value);
    EXPECT_EQ(escaped.find('\n'), std::string::npos) << value;
    EXPECT_EQ(UnescapeLabelValue(escaped), value) << escaped;
  }
}

TEST(Prometheus, ExposePrometheusRendersTypedFamilies) {
  MetricsRegistry registry;
  registry.GetCounter("prom.test-counter")->Increment(7);
  registry.GetGauge("prom.gauge")->Set(-3);
  registry.GetHistogram("prom.latency-us")->Record(100);
  registry.GetHistogram("prom.latency-us")->Record(300);
  const std::string text = registry.ExposePrometheus();
  EXPECT_NE(text.find("# TYPE prom_test_counter counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("prom_test_counter 7"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE prom_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("prom_gauge -3"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE prom_latency_us summary"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("prom_latency_us{quantile=\"0.5\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("prom_latency_us_count 2"), std::string::npos)
      << text;
  // Raw (unsanitized) spellings must not leak into the exposition.
  EXPECT_EQ(text.find("prom.test-counter"), std::string::npos) << text;
}

TEST(MetricsWindowRates, ManualSamplesYieldWindowedRates) {
  MetricsRegistry registry;
  Counter* requests = registry.GetCounter("win.requests");
  Counter* hits = registry.GetCounter("win.hits");
  MetricsWindow window(&registry, /*slots=*/8);
  EXPECT_TRUE(window.Rates().empty());  // one sample is not a window

  window.SampleNow();
  requests->Increment(100);
  hits->Increment(25);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  window.SampleNow();

  const std::vector<MetricsWindow::Rate> rates = window.Rates();
  uint64_t requests_delta = 0;
  double requests_per_sec = 0;
  for (const MetricsWindow::Rate& rate : rates) {
    if (rate.name == "win.requests") {
      requests_delta = rate.delta;
      requests_per_sec = rate.per_second;
      EXPECT_GT(rate.window_seconds, 0.0);
    }
  }
  EXPECT_EQ(requests_delta, 100u);
  EXPECT_GT(requests_per_sec, 0.0);

  double hit_rate = 0;
  ASSERT_TRUE(window.WindowedRatio("win.hits", "win.requests", &hit_rate));
  EXPECT_DOUBLE_EQ(hit_rate, 0.25);
  // Ratio with a zero-delta denominator reports false, not inf.
  double bogus = 0;
  EXPECT_FALSE(window.WindowedRatio("win.hits", "win.absent", &bogus));

  const std::string text = window.ExposePrometheus();
  EXPECT_NE(text.find("win_requests_per_sec"), std::string::npos) << text;
  EXPECT_NE(text.find("opt_metrics_window_seconds"), std::string::npos)
      << text;
}

TEST(MetricsHttp, ServesScrapeBodyAndRejectsUnknownPaths) {
  MetricsHttpServer server(
      [] { return std::string("# TYPE x counter\nx 1\n"); });
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_NE(server.port(), 0);

  auto fetch = [&](const std::string& request_line) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const std::string request = request_line + "\r\n\r\n";
    EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    std::string reply;
    char buffer[1024];
    ssize_t n;
    while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
      reply.append(buffer, static_cast<size_t>(n));
    }
    ::close(fd);
    return reply;
  };

  const std::string ok = fetch("GET /metrics HTTP/1.0");
  EXPECT_NE(ok.find("200"), std::string::npos) << ok;
  EXPECT_NE(ok.find("text/plain"), std::string::npos) << ok;
  EXPECT_NE(ok.find("# TYPE x counter\nx 1\n"), std::string::npos) << ok;

  const std::string missing = fetch("GET /nope HTTP/1.0");
  EXPECT_NE(missing.find("404"), std::string::npos) << missing;

  server.Stop();
}

// ---------------------------------------------------------------------
// Trace recorder

TEST(Trace, DisabledTracingRecordsNothing) {
  ASSERT_EQ(CurrentTraceRecorder(), nullptr);
  { TraceSpan span("test", "invisible"); }
  TraceInstant("test", "also-invisible");
  // Nothing to assert against — the point is no crash with no recorder.
}

TEST(Trace, SpansNestAndSerializeToValidJson) {
  TraceRecorder recorder;
  StartTracing(&recorder);
  {
    TraceSpan outer("test", "outer", "\"depth\":0");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      TraceSpan inner("test", "inner", "\"depth\":1");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    TraceInstant("test", "tick", "\"n\":1");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  StopTracing();

  const std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(recorder.dropped(), 0u);

  const TraceEvent* outer = nullptr;
  const TraceEvent* inner = nullptr;
  const TraceEvent* tick = nullptr;
  for (const TraceEvent& event : events) {
    if (event.name == "outer") outer = &event;
    if (event.name == "inner") inner = &event;
    if (event.name == "tick") tick = &event;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(tick, nullptr);
  EXPECT_EQ(outer->phase, 'X');
  EXPECT_EQ(inner->phase, 'X');
  EXPECT_EQ(tick->phase, 'i');
  EXPECT_EQ(outer->tid, inner->tid);  // one thread did all the work
  // inner is properly contained in outer.
  EXPECT_GE(inner->ts_micros, outer->ts_micros);
  EXPECT_LE(inner->ts_micros + inner->dur_micros,
            outer->ts_micros + outer->dur_micros);
  EXPECT_GT(inner->dur_micros, 0u);

  const std::string json = recorder.ToJson();
  EXPECT_TRUE(testutil::JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"depth\":1"), std::string::npos);
}

TEST(Trace, ConcurrentSpansKeepPerThreadNesting) {
  TraceRecorder recorder;
  StartTracing(&recorder);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 8; ++i) {
        TraceSpan outer("test", "outer");
        TraceSpan inner("test", "inner");
      }
    });
  }
  for (auto& thread : threads) thread.join();
  StopTracing();

  const std::vector<TraceEvent> events = recorder.Events();
  EXPECT_EQ(events.size(), 4u * 8u * 2u);
  // Within each thread, any two complete spans are disjoint or nested —
  // never partially overlapping (that would render as garbage in
  // Perfetto and signal a broken trace clock).
  for (size_t i = 0; i < events.size(); ++i) {
    for (size_t j = i + 1; j < events.size(); ++j) {
      const TraceEvent& a = events[i];
      const TraceEvent& b = events[j];
      if (a.tid != b.tid || a.phase != 'X' || b.phase != 'X') continue;
      const uint64_t a_end = a.ts_micros + a.dur_micros;
      const uint64_t b_end = b.ts_micros + b.dur_micros;
      const bool disjoint = a_end <= b.ts_micros || b_end <= a.ts_micros;
      const bool a_in_b = a.ts_micros >= b.ts_micros && a_end <= b_end;
      const bool b_in_a = b.ts_micros >= a.ts_micros && b_end <= a_end;
      EXPECT_TRUE(disjoint || a_in_b || b_in_a)
          << "events " << i << " and " << j << " partially overlap";
    }
  }
  EXPECT_TRUE(testutil::JsonChecker(recorder.ToJson()).Valid());
}

TEST(Trace, EventCapDropsInsteadOfGrowing) {
  TraceRecorder recorder(/*max_events=*/4);
  StartTracing(&recorder);
  for (int i = 0; i < 10; ++i) TraceInstant("test", "e");
  StopTracing();
  EXPECT_EQ(recorder.Events().size(), 4u);
  EXPECT_EQ(recorder.dropped(), 6u);
  EXPECT_TRUE(testutil::JsonChecker(recorder.ToJson()).Valid());
}

TEST(Trace, WriteJsonRoundTripsThroughDisk) {
  TraceRecorder recorder;
  StartTracing(&recorder);
  { TraceSpan span("test", "disk \"quoted\" name\n"); }
  StopTracing();
  const std::string path =
      testutil::ProcessTempDir() + "/trace_roundtrip.json";
  ASSERT_TRUE(recorder.WriteJson(path).ok());
  std::string contents;
  FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(file);
  EXPECT_EQ(contents, recorder.ToJson());
  EXPECT_TRUE(testutil::JsonChecker(contents).Valid()) << contents;
}

TEST(Trace, DrainEmptiesTheRingAndKeepsTheDroppedTotal) {
  TraceRecorder recorder(/*max_events=*/4);
  StartTracing(&recorder);
  for (int i = 0; i < 10; ++i) TraceInstant("test", "e");
  const std::vector<TraceEvent> drained = recorder.Drain();
  EXPECT_EQ(drained.size(), 4u);
  EXPECT_TRUE(recorder.Events().empty());
  EXPECT_EQ(recorder.dropped(), 6u);  // survives the drain
  // The ring keeps recording after a drain (TRACE_PULL is repeatable).
  TraceInstant("test", "after");
  StopTracing();
  ASSERT_EQ(recorder.Events().size(), 1u);
  EXPECT_EQ(recorder.Events()[0].name, "after");
}

TEST(Trace, SpanIdsPropagateThroughContextScopes) {
  TraceRecorder recorder;
  StartTracing(&recorder);
  const uint64_t trace_id = NewTraceId();
  ASSERT_NE(trace_id, 0u);
  uint64_t parent_id = 0;
  {
    TraceContextScope remote({trace_id, 0});
    TraceSpan parent("test", "parent");
    EXPECT_EQ(parent.trace_id(), trace_id);
    parent_id = parent.span_id();
    ASSERT_NE(parent_id, 0u);
    TraceSpan child("test", "child");
    EXPECT_EQ(child.trace_id(), trace_id);
    EXPECT_NE(child.span_id(), parent_id);
  }
  EXPECT_EQ(CurrentTraceContext().trace_id, 0u);  // scope restored
  StopTracing();

  // Events() returns a copy: keep it alive while pointing into it.
  const std::vector<TraceEvent> events = recorder.Events();
  const TraceEvent* child_event = nullptr;
  for (const TraceEvent& event : events) {
    if (event.name == "child") child_event = &event;
  }
  ASSERT_NE(child_event, nullptr);
  EXPECT_EQ(child_event->trace_id, trace_id);
  EXPECT_EQ(child_event->parent_span_id, parent_id);
}

TEST(Trace, AssembleTraceDrawsFlowsAcrossProcessBoundaries) {
  // Hand-built two-process dump: a router rpc span (pid 10) parents a
  // shard query span (pid 20) in the same request tree.
  ProcessTrace router;
  router.pid = 10;
  router.label = "router";
  router.unix_origin_micros = 1000;
  TraceEvent rpc;
  rpc.name = "rpc.count";
  rpc.category = "router";
  rpc.phase = 'X';
  rpc.ts_micros = 5;
  rpc.dur_micros = 500;
  rpc.tid = 1;
  rpc.trace_id = 0xbeef;
  rpc.span_id = 0x100;
  router.events.push_back(rpc);

  ProcessTrace shard;
  shard.pid = 20;
  shard.label = "shard0";
  shard.unix_origin_micros = 1200;  // later-born process, rebased
  TraceEvent query;
  query.name = "query.count";
  query.category = "service";
  query.phase = 'X';
  query.ts_micros = 50;
  query.dur_micros = 300;
  query.tid = 2;
  query.trace_id = 0xbeef;
  query.span_id = 0x200;
  query.parent_span_id = 0x100;  // the router's rpc span
  shard.events.push_back(query);

  const std::string json = AssembleTrace({router, shard});
  EXPECT_TRUE(testutil::JsonChecker(json).Valid()) << json;
  // One process_name row per process.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"router\""), std::string::npos);
  EXPECT_NE(json.find("\"shard0\""), std::string::npos);
  // The cross-process parent/child pair produced a flow arrow.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos) << json;

  // Same-process parent/child draws no arrow: move the child into the
  // router process and the flow events disappear.
  ProcessTrace solo = router;
  TraceEvent local_child = query;
  solo.events.push_back(local_child);
  const std::string solo_json = AssembleTrace({solo});
  EXPECT_TRUE(testutil::JsonChecker(solo_json).Valid()) << solo_json;
  EXPECT_EQ(solo_json.find("\"ph\":\"s\""), std::string::npos) << solo_json;
}

// ---------------------------------------------------------------------
// Slow-query log

/// Captures formatted log lines for assertions.
class LogCapture {
 public:
  LogCapture() {
    SetLogSink([this](LogLevel level, const std::string& line) {
      std::lock_guard<std::mutex> lock(mutex_);
      lines_.push_back({level, line});
    });
  }
  ~LogCapture() { SetLogSink(nullptr); }

  std::vector<std::pair<LogLevel, std::string>> lines() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return lines_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::pair<LogLevel, std::string>> lines_;
};

/// Sleeps in Emit so LIST execution reliably crosses a 1 ms threshold.
class SleepySink : public TriangleSink {
 public:
  void Emit(VertexId, VertexId, std::span<const VertexId>) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
};

std::string MaterializeTriangleStore(Env* env, const std::string& tag) {
  // K5: every vertex pair connected; 10 triangles, so SleepySink::Emit
  // definitely runs.
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) edges.push_back({u, v});
  }
  CSRGraph g = GraphBuilder::FromEdges(edges);
  const std::string base = testutil::ProcessTempDir() + "/slowq_" + tag;
  GraphStoreOptions options;
  options.page_size = 256;
  Status s = GraphStore::Create(g, env, base, options);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return base;
}

TEST(SlowQueryLog, LogsAtWarnWhenOverThreshold) {
  Env* env = Env::Default();
  GraphRegistry registry(env);
  SchedulerOptions options;
  options.workers = 1;
  options.slow_query_millis = 1;
  QueryScheduler scheduler(&registry, options);
  ASSERT_TRUE(
      scheduler.LoadGraph("k5", MaterializeTriangleStore(env, "on")).ok());

  LogCapture capture;
  SleepySink sink;
  QuerySpec spec;
  spec.graph = "k5";
  spec.kind = QueryKind::kList;
  spec.list_sink = &sink;
  const QueryResult result = scheduler.Run(spec);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.triangles, 10u);

  EXPECT_EQ(scheduler.stats().slow_queries, 1u);
  bool found = false;
  for (const auto& [level, line] : capture.lines()) {
    if (line.find("slow query") == std::string::npos) continue;
    found = true;
    EXPECT_EQ(level, LogLevel::kWarn);
    EXPECT_NE(line.find("graph=k5"), std::string::npos) << line;
    EXPECT_NE(line.find("kind=LIST"), std::string::npos) << line;
    EXPECT_NE(line.find("queue_wait_ms="), std::string::npos) << line;
    EXPECT_NE(line.find("exec_ms="), std::string::npos) << line;
  }
  EXPECT_TRUE(found);
}

TEST(SlowQueryLog, DisabledByDefault) {
  Env* env = Env::Default();
  GraphRegistry registry(env);
  SchedulerOptions options;
  options.workers = 1;  // slow_query_millis stays 0
  QueryScheduler scheduler(&registry, options);
  ASSERT_TRUE(
      scheduler.LoadGraph("k5", MaterializeTriangleStore(env, "off")).ok());

  LogCapture capture;
  SleepySink sink;
  QuerySpec spec;
  spec.graph = "k5";
  spec.kind = QueryKind::kList;
  spec.list_sink = &sink;
  const QueryResult result = scheduler.Run(spec);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();

  EXPECT_EQ(scheduler.stats().slow_queries, 0u);
  for (const auto& [level, line] : capture.lines()) {
    EXPECT_EQ(line.find("slow query"), std::string::npos) << line;
  }
}

TEST(SlowQueryLog, QueueWaitIsReportedSeparately) {
  // With a saturated single worker, the second query's queue wait is
  // nonzero and the QueryResult carries it.
  Env* env = Env::Default();
  GraphRegistry registry(env);
  SchedulerOptions options;
  options.workers = 1;
  QueryScheduler scheduler(&registry, options);
  ASSERT_TRUE(
      scheduler.LoadGraph("k5", MaterializeTriangleStore(env, "qw")).ok());

  SleepySink slow_sink;
  QuerySpec slow;
  slow.graph = "k5";
  slow.kind = QueryKind::kList;
  slow.list_sink = &slow_sink;
  auto first = scheduler.Submit(slow);

  SleepySink second_sink;
  QuerySpec queued = slow;
  queued.list_sink = &second_sink;
  auto second = scheduler.Submit(queued);

  const QueryResult second_result = second.get();
  ASSERT_TRUE(second_result.status.ok());
  EXPECT_GT(second_result.queue_seconds, 0.0);
  first.wait();
}

TEST(SlowQueryLog, SlowQueryLineCarriesTheRequestTraceTag) {
  // A traced request's slow-query warning leads with [trace=<hex>] so
  // log lines grep-correlate with the assembled trace tree. The tag
  // rides the ambient context captured at Submit — no recorder needed.
  Env* env = Env::Default();
  GraphRegistry registry(env);
  SchedulerOptions options;
  options.workers = 1;
  options.slow_query_millis = 1;
  QueryScheduler scheduler(&registry, options);
  ASSERT_TRUE(
      scheduler.LoadGraph("k5", MaterializeTriangleStore(env, "tag")).ok());

  LogCapture capture;
  SleepySink sink;
  QuerySpec spec;
  spec.graph = "k5";
  spec.kind = QueryKind::kList;
  spec.list_sink = &sink;
  {
    TraceContextScope scope({0xabc123, 0});
    const QueryResult result = scheduler.Run(spec);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  }

  bool found = false;
  for (const auto& [level, line] : capture.lines()) {
    if (line.find("slow query") == std::string::npos) continue;
    found = true;
    EXPECT_NE(line.find("[trace=0000000000abc123]"), std::string::npos)
        << line;
  }
  EXPECT_TRUE(found);

  // Untraced requests keep the old spelling — no empty [trace=] stub.
  LogCapture untraced_capture;
  SleepySink untraced_sink;
  QuerySpec untraced = spec;
  untraced.list_sink = &untraced_sink;
  ASSERT_TRUE(scheduler.Run(untraced).status.ok());
  for (const auto& [level, line] : untraced_capture.lines()) {
    if (line.find("slow query") == std::string::npos) continue;
    EXPECT_EQ(line.find("[trace="), std::string::npos) << line;
  }
}

}  // namespace
}  // namespace opt
