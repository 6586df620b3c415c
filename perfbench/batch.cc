// Batch workloads: one OptRunner::Run per repetition on a store built at
// set-up, COUNT into a CountingSink (twitter-ooc-count) or LIST into a
// ListingSink file (hk-incore-list).
#include <algorithm>
#include <functional>
#include <memory>

#include "core/iterator_model.h"
#include "core/listing_reader.h"
#include "core/opt_runner.h"
#include "core/triangle_sink.h"
#include "graph/intersect.h"
#include "harness/datasets.h"
#include "layers.h"
#include "oracle.h"
#include "perfbench.h"
#include "storage/graph_store.h"
#include "util/metrics.h"

namespace perfbench {

using opt::Env;
using opt::GraphStore;
using opt::Status;

namespace {

/// Runner threads of both batch workloads.
constexpr uint32_t kRunThreads = 4;

struct BatchConfig {
  const char* name;
  bool list = false;
  double buffer_percent = 0;
  std::function<opt::CSRGraph(uint64_t seed)> make_graph;
};

struct Prepared {
  std::string base;
  Digest expected;
  uint64_t vertices = 0;
  uint64_t edges = 0;
  uint32_t pages = 0;
  uint32_t memory_pages = 0;
};

/// Set-up: generate and degree-order the graph, build the store, compute
/// the oracle, open the store.
opt::Result<Prepared> Prepare(const BatchConfig& config, const Args& args,
                              Env* env) {
  const opt::CSRGraph graph = config.make_graph(args.seed);
  Prepared prepared;
  prepared.base = args.work_dir + "/" + config.name;
  opt::GraphStoreOptions options;
  options.page_size = kPageSize;
  OPT_RETURN_IF_ERROR(
      GraphStore::Create(graph, Env::Default(), prepared.base, options));
  prepared.expected = OracleDigest(graph, std::min(HostCpus(), kRunThreads));
  OPT_ASSIGN_OR_RETURN(auto store, GraphStore::Open(env, prepared.base));
  prepared.vertices = graph.num_vertices();
  prepared.edges = graph.num_edges();
  prepared.pages = store->num_pages();
  prepared.memory_pages =
      opt::PagesForBufferPercent(*store, config.buffer_percent);
  return prepared;
}

/// Process-wide counters of the layers below the runner, diffed per rep.
struct LayerCounters {
  uint64_t io_requests = 0;
  uint64_t io_retries = 0;
  uint64_t io_read_us = 0;
  uint64_t pool_lookups = 0;
  uint64_t pool_hits = 0;
  opt::IntersectCounters intersect;

  static LayerCounters Now() {
    opt::MetricsRegistry& m = opt::Metrics();
    LayerCounters c;
    c.io_requests = m.GetCounter("io.requests")->value();
    c.io_retries = m.GetCounter("io.retries")->value();
    c.io_read_us = m.GetHistogram("io.page_read_us")->Snapshot().sum;
    c.pool_lookups = m.GetCounter("pool.fetch.lookups")->value();
    c.pool_hits = m.GetCounter("pool.fetch.hits")->value();
    c.intersect = opt::SnapshotIntersectCounters();
    return c;
  }
  LayerCounters Minus(const LayerCounters& before) const {
    LayerCounters d;
    d.io_requests = io_requests - before.io_requests;
    d.io_retries = io_retries - before.io_retries;
    d.io_read_us = io_read_us - before.io_read_us;
    d.pool_lookups = pool_lookups - before.pool_lookups;
    d.pool_hits = pool_hits - before.pool_hits;
    d.intersect = opt::IntersectCounters::Delta(intersect, before.intersect);
    return d;
  }
};

struct RepResult {
  double wall_s = 0;
  Digest got;
  opt::OptRunStats stats;
  LayerCounters layers;
  // Traced repetitions only.
  uint64_t emit_calls = 0;
  double emit_busy_s = 0;
  double finish_s = 0;
  uint64_t sink_bytes = 0;
  TimingEnv::Totals storage;
};

/// Tracing state of a traced repetition.
struct Tracer {
  opt::TraceRecorder* recorder = nullptr;
  SpanContext* context = nullptr;
  TimingEnv* env = nullptr;
};

/// One repetition: open the store, Run, Finish (the listing is on disk
/// when it returns). Verification happens afterwards, untimed.
opt::Result<RepResult> RunRep(const BatchConfig& config,
                              const Prepared& prepared, Env* env,
                              const std::string& listing_path,
                              const Tracer* tracer) {
  opt::TraceRecorder* spans = tracer != nullptr ? tracer->recorder : nullptr;
  const uint64_t trace_id = spans != nullptr ? opt::NewTraceId() : 0;
  RepResult result;
  const LayerCounters before = LayerCounters::Now();
  const auto start = Clock::now();
  {
    ScopedSpan rep(spans, "rep", trace_id, 0);
    std::unique_ptr<GraphStore> store;
    {
      ScopedSpan open(spans, "storage.open", trace_id, rep.id());
      if (tracer != nullptr) {
        tracer->context->trace_id = trace_id;
        tracer->context->parent_id = open.id();
      }
      OPT_ASSIGN_OR_RETURN(store, GraphStore::Open(env, prepared.base));
    }
    opt::OptOptions options;
    const uint32_t half = std::max(1u, prepared.memory_pages / 2);
    options.m_in = std::max(half, store->MaxRecordPages());
    options.m_ex = half;
    options.num_threads = kRunThreads;
    opt::EdgeIteratorModel model;
    opt::OptRunner runner(store.get(), &model, options);

    opt::CountingSink counting;
    std::unique_ptr<opt::ListingSink> listing;
    opt::TriangleSink* sink = &counting;
    if (config.list) {
      listing = std::make_unique<opt::ListingSink>(env, listing_path);
      sink = listing.get();
    }
    std::unique_ptr<TimingSink> timing;
    if (tracer != nullptr) {
      timing = std::make_unique<TimingSink>(sink, spans, tracer->context);
      sink = timing.get();
    }
    {
      ScopedSpan run(spans, "runner.run", trace_id, rep.id());
      if (tracer != nullptr) {
        tracer->context->trace_id = trace_id;
        tracer->context->parent_id = run.id();
      }
      OPT_RETURN_IF_ERROR(runner.Run(sink, &result.stats));
    }
    // Run finishes the sink itself; this call only makes sure of it.
    if (tracer != nullptr) tracer->context->parent_id = rep.id();
    OPT_RETURN_IF_ERROR(sink->Finish());
    if (config.list) {
      result.sink_bytes = listing->bytes_written();
    } else {
      result.got.count = counting.count();
    }
    if (timing != nullptr) {
      result.emit_calls = timing->emit_calls();
      result.emit_busy_s = timing->emit_busy_s();
      result.finish_s = timing->finish_s();
    }
  }
  result.wall_s = SecondsBetween(start, Clock::now());
  result.layers = LayerCounters::Now().Minus(before);
  if (tracer != nullptr) {
    tracer->context->trace_id = 0;
    tracer->context->parent_id = 0;
    result.storage = tracer->env->Take();
  }
  if (config.list) {
    Status status = opt::ReadListing(
        Env::Default(), listing_path,
        [&](opt::VertexId u, opt::VertexId v,
            std::span<const opt::VertexId> ws) { result.got.Add(u, v, ws); });
    Env::Default()->DeleteFile(listing_path);
    OPT_RETURN_IF_ERROR(status);
  }
  return result;
}

double MedianOf(const std::vector<RepResult>& reps,
                const std::function<double(const RepResult&)>& field) {
  std::vector<double> values;
  for (const RepResult& r : reps) values.push_back(field(r));
  return Median(values);
}

opt::Result<Outcome> RunBatch(const BatchConfig& config, const Args& args) {
  Outcome out;
  opt::ThrottledEnv throttled(Env::Default(), kReadLatencyMicros);

  Prepared prepared;
  OPT_ASSIGN_OR_RETURN(const double setup_s, TimeSetups(args, [&] {
    OPT_ASSIGN_OR_RETURN(prepared, Prepare(config, args, &throttled));
    return Status::OK();
  }));
  Digest expected = prepared.expected;
  expected.count += args.perturb_expected;
  out.provenance = {
      {"graph_vertices", std::to_string(prepared.vertices)},
      {"graph_edges", std::to_string(prepared.edges)},
      {"graph_triangles", std::to_string(prepared.expected.count)},
      {"graph_pages", std::to_string(prepared.pages)},
      {"memory_pages", std::to_string(prepared.memory_pages)},
      {"run_threads", std::to_string(kRunThreads)},
  };

  const std::string listing_path = args.work_dir + "/listing.bin";
  auto rep_once = [&](Env* env, const Tracer* tracer) -> opt::Result<RepResult> {
    OPT_ASSIGN_OR_RETURN(RepResult rep,
                         RunRep(config, prepared, env, listing_path, tracer));
    ++out.attempted;
    const bool ok = config.list ? rep.got == expected
                                : rep.got.count == expected.count;
    if (!ok) {
      out.Fail(std::string(config.name) + ": got " +
               (config.list ? rep.got.ToString()
                            : std::to_string(rep.got.count)) +
               ", oracle " +
               (config.list ? expected.ToString()
                            : std::to_string(expected.count)));
    }
    return rep;
  };
  // Repeats until `budget` seconds have passed and at least 3 repetitions
  // ran.
  auto loop = [&](double budget, Env* env, const Tracer* tracer)
      -> opt::Result<std::vector<RepResult>> {
    std::vector<RepResult> reps;
    const auto start = Clock::now();
    while (reps.size() < 3 || SecondsBetween(start, Clock::now()) < budget) {
      OPT_ASSIGN_OR_RETURN(RepResult rep, rep_once(env, tracer));
      reps.push_back(std::move(rep));
    }
    return reps;
  };

  // Warm-up: threads, allocator and page cache settle before timing.
  OPT_RETURN_IF_ERROR(rep_once(&throttled, nullptr).status());
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  OPT_ASSIGN_OR_RETURN(std::vector<RepResult> plain,
                       loop(budget, &throttled, nullptr));
  std::vector<double> walls;
  for (const RepResult& r : plain) walls.push_back(r.wall_s);
  const double run_s = Median(walls);
  out.info.push_back({"reps", static_cast<double>(plain.size()), "count"});
  out.info.push_back({"run_s.q1", Quantile(walls, 0.25), "s"});
  out.info.push_back({"run_s.q3", Quantile(walls, 0.75), "s"});

  if (!args.trace) {
    out.values["setup_s"] = setup_s;
    out.values["run_s"] = run_s;
    // One query runs at a time, so a query is one repetition, and the
    // medians resist the host's bursts of noise better than totals.
    out.values["query_p50_ms"] = run_s * 1e3;
    out.values["qps"] = 1.0 / run_s;
    out.info.push_back({"peak_rss_mb", PeakRssMb(), "MiB"});
    return out;
  }

  opt::TraceRecorder recorder;
  SpanContext context;
  TimingEnv timing_env(&throttled, &recorder, &context);
  const Tracer tracer{&recorder, &context, &timing_env};
  OPT_ASSIGN_OR_RETURN(std::vector<RepResult> traced,
                       loop(budget, &timing_env, &tracer));
  const double n = static_cast<double>(prepared.pages);
  auto& v = out.values;
  std::vector<double> read_us;
  for (const RepResult& r : traced) {
    read_us.insert(read_us.end(), r.storage.read_us.begin(),
                   r.storage.read_us.end());
  }
  v["storage.reads"] = MedianOf(traced, [](const RepResult& r) {
    return static_cast<double>(r.storage.reads);
  });
  v["storage.read_bytes"] = MedianOf(traced, [](const RepResult& r) {
    return static_cast<double>(r.storage.read_bytes);
  });
  v["storage.read_busy_s"] =
      MedianOf(traced, [](const RepResult& r) { return r.storage.read_busy_s; });
  v["storage.read_us_p50"] = Median(read_us);
  v["storage.reads_per_graph_page"] = v["storage.reads"] / n;
  v["pool.internal_hits"] = MedianOf(traced, [](const RepResult& r) {
    return static_cast<double>(r.stats.internal_cache_hits);
  });
  v["pool.external_hits"] = MedianOf(traced, [](const RepResult& r) {
    return static_cast<double>(r.stats.external_cache_hits);
  });
  v["pool.hit_ratio"] = MedianOf(traced, [](const RepResult& r) {
    return r.layers.pool_lookups == 0
               ? 0.0
               : static_cast<double>(r.layers.pool_hits) / r.layers.pool_lookups;
  });
  v["io.requests"] = MedianOf(traced, [](const RepResult& r) {
    return static_cast<double>(r.layers.io_requests);
  });
  v["io.retries"] = MedianOf(traced, [](const RepResult& r) {
    return static_cast<double>(r.layers.io_retries);
  });
  v["io.read_s"] =
      MedianOf(traced, [](const RepResult& r) { return r.layers.io_read_us * 1e-6; });
  v["runner.iterations"] = MedianOf(traced, [](const RepResult& r) {
    return static_cast<double>(r.stats.iterations);
  });
  v["runner.cpu_util"] = MedianOf(traced, [](const RepResult& r) {
    return r.stats.PerfTotal().task_clock_ns * 1e-9 /
           (r.stats.elapsed_seconds * kRunThreads);
  });
  v["intersect.calls"] = MedianOf(traced, [](const RepResult& r) {
    return static_cast<double>(r.layers.intersect.TotalCalls());
  });
  v["intersect.elements"] = MedianOf(traced, [](const RepResult& r) {
    return static_cast<double>(r.layers.intersect.TotalElements());
  });
  v["intersect.elements_per_triangle"] =
      v["intersect.elements"] / std::max<uint64_t>(1, prepared.expected.count);
  v["sink.emit_calls"] = MedianOf(traced, [](const RepResult& r) {
    return static_cast<double>(r.emit_calls);
  });
  v["sink.emit_busy_s"] =
      MedianOf(traced, [](const RepResult& r) { return r.emit_busy_s; });
  v["sink.finish_s"] =
      MedianOf(traced, [](const RepResult& r) { return r.finish_s; });
  v["sink.bytes"] = MedianOf(traced, [](const RepResult& r) {
    return static_cast<double>(r.sink_bytes);
  });
  v["trace.overhead_ratio"] =
      MedianOf(traced, [](const RepResult& r) { return r.wall_s; }) / run_s;
  const std::vector<opt::TraceEvent> events = recorder.Events();
  v["unattributed_s"] = UnattributedSeconds(events) / traced.size();

  // Runner phase split, batch only (the service hides OptRunStats).
  auto info = [&](const char* name, const char* unit,
                  const std::function<double(const RepResult&)>& field) {
    out.info.push_back({name, MedianOf(traced, field), unit});
  };
  info("runner.serial_s", "s",
       [](const RepResult& r) { return r.stats.serial_seconds; });
  info("runner.parallel_s", "s",
       [](const RepResult& r) { return r.stats.parallel_seconds; });
  info("runner.load_s", "s", [](const RepResult& r) {
    double load = 0;
    for (const auto& it : r.stats.per_iteration) load += it.load_seconds;
    return load;
  });
  info("runner.internal_cpu_s", "s", [](const RepResult& r) {
    double cpu = 0;
    for (const auto& it : r.stats.per_iteration) cpu += it.internal_cpu_seconds;
    return cpu;
  });
  info("runner.external_cpu_s", "s", [](const RepResult& r) {
    double cpu = 0;
    for (const auto& it : r.stats.per_iteration) cpu += it.external_cpu_seconds;
    return cpu;
  });
  info("sink.write_busy_s", "s",
       [](const RepResult& r) { return r.storage.write_busy_s; });
  out.info.push_back({"traced_reps", static_cast<double>(traced.size()), "count"});
  for (const auto& [name, self_s] : SelfSeconds(events)) {
    out.info.push_back({"self." + name, self_s / traced.size(), "s"});
  }
  const std::string trace_path =
      args.trace_out.empty() ? args.work_dir + "/trace.json" : args.trace_out;
  OPT_RETURN_IF_ERROR(recorder.WriteJson(trace_path));
  out.provenance.push_back({"trace_file", "\"" + trace_path + "\""});
  out.provenance.push_back({"trace_spans", std::to_string(events.size())});
  out.provenance.push_back(
      {"trace_dropped_spans", std::to_string(recorder.dropped())});
  return out;
}

}  // namespace

opt::Result<Outcome> RunTwitterOocCount(const Args& args) {
  return RunBatch({"twitter-ooc-count", false, 15.0, TwitterGraph}, args);
}

opt::Result<Outcome> RunHkIncoreList(const Args& args) {
  return RunBatch({"hk-incore-list", true, 100.0,
                   [](uint64_t seed) { return HolmeKimGraph(18, seed); }},
                  args);
}

}  // namespace perfbench
