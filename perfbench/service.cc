// service-mixed: an in-process OptServer on a Unix socket serving two
// graphs that share the registry's buffer pool, driven closed-loop by one
// OptClient connection per load thread. Ops, in a fixed cycle per client:
// COUNT on either graph with varied memory_pages (a fixed share repeats,
// so coalescing and the result cache work), LIST on the never-mutated
// Holme–Kim graph, and ADD_EDGES / REMOVE_EDGES batches on the R-MAT
// graph.
#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string_view>
#include <thread>

#include "core/triangle_sink.h"
#include "graph/intersect.h"
#include "layers.h"
#include "oracle.h"
#include "perfbench.h"
#include "service/client.h"
#include "service/graph_registry.h"
#include "service/query_scheduler.h"
#include "service/server.h"
#include "service/wire.h"
#include "storage/graph_store.h"
#include "util/metrics.h"

namespace perfbench {

using opt::Env;
using opt::Status;

namespace {

constexpr const char* kRmat = "rmat";  // mutated
constexpr const char* kHk = "hk";      // listed, never mutated
// Every client repeats this cycle of operations, each from its own phase
// so that clients do not LIST at the same moment: 6 of 20 mutate (M),
// 1 lists (L) and 13 count (C). A fixed mix keeps the latency
// distribution the same from seed to seed.
constexpr std::string_view kCycle = "CCMCCMCCMCLMCCMCCMCC";
// Of every 5 COUNTs of a client, 3 run fresh on rmat, 1 runs fresh on hk
// and 1 repeats a fixed size, alternating between the graphs. An hk
// repeat hits the result cache; an rmat repeat can coalesce with a twin
// in flight or hit the cache between mutations.
constexpr uint64_t kCountCycle = 5;
// The shared pool's fixed size. A pool grows to the sum of the
// reservations of the queries running at once, which depends on timing;
// starting it at more than 4 workers' largest reservation (memory_pages
// below a third of the larger graph, plus slack) keeps it at this size,
// which is less than the two graphs' pages together, so the graphs
// compete for it in every run alike.
constexpr uint32_t kPoolFrames = 1024;
constexpr double kWarmupSeconds = 1.0;

struct Inputs {
  std::string rmat_base;
  std::string hk_base;
  uint64_t rmat_triangles = 0;
  Digest hk;
  uint32_t rmat_pages = 0;
  uint32_t hk_pages = 0;
  uint64_t rmat_edges = 0;
  uint64_t hk_edges = 0;
  std::unique_ptr<MutationChain> chain;
};

opt::Result<Inputs> PrepareInputs(const Args& args) {
  Inputs in;
  const opt::CSRGraph rmat = SkewedRmatGraph(14, 16, args.seed);
  const opt::CSRGraph hk = HolmeKimGraph(15, args.seed);
  in.rmat_base = args.work_dir + "/svc-rmat";
  in.hk_base = args.work_dir + "/svc-hk";
  opt::GraphStoreOptions options;
  options.page_size = kPageSize;
  OPT_RETURN_IF_ERROR(
      opt::GraphStore::Create(rmat, Env::Default(), in.rmat_base, options));
  OPT_RETURN_IF_ERROR(
      opt::GraphStore::Create(hk, Env::Default(), in.hk_base, options));
  const uint32_t threads = std::min(HostCpus(), 4u);
  in.rmat_triangles = OracleDigest(rmat, threads).count;
  in.hk = OracleDigest(hk, threads);
  in.chain = std::make_unique<MutationChain>(rmat, in.rmat_triangles,
                                             args.seed);
  in.rmat_edges = rmat.num_edges();
  in.hk_edges = hk.num_edges();
  return in;
}

/// Server side: env → registry → scheduler → server, torn down in
/// reverse.
struct Rig {
  explicit Rig(Env* env)
      : registry(env, PoolOptions()),
        scheduler(&registry, opt::SchedulerOptions()),
        server(&scheduler) {}
  ~Rig() { server.Stop(); }

  static opt::RegistryOptions PoolOptions() {
    opt::RegistryOptions options;
    options.min_pool_frames = kPoolFrames;
    return options;
  }

  opt::GraphRegistry registry;
  opt::QueryScheduler scheduler;
  opt::OptServer server;
};

opt::Result<std::unique_ptr<Rig>> StartRig(Env* env, const Inputs& in,
                                           const std::string& socket) {
  auto rig = std::make_unique<Rig>(env);
  OPT_RETURN_IF_ERROR(rig->scheduler.LoadGraph(kRmat, in.rmat_base));
  OPT_RETURN_IF_ERROR(rig->scheduler.LoadGraph(kHk, in.hk_base));
  OPT_RETURN_IF_ERROR(rig->server.ListenUnix(socket));
  OPT_RETURN_IF_ERROR(rig->server.Start());
  return rig;
}

enum class OpKind { kCount, kList, kMutate };

/// Buffer sizes of fresh COUNTs on one graph: a low-discrepancy walk over
/// [pages/8, pages/3) that repeats no size before it has used them all, so
/// fresh queries miss the result cache and every stretch of the run sees
/// the same spread of sizes. Thread-safe.
class SizeWalk {
 public:
  SizeWalk(uint32_t pages, uint64_t seed)
      : lo_(std::max(1u, pages / 8)),
        range_(std::max(2u, pages / 3 - lo_)),
        stride_(static_cast<uint32_t>(range_ * 0.618)),
        offset_(static_cast<uint32_t>(seed % range_)),
        repeat_(std::max(1u, pages / 4)) {
    while (std::gcd(stride_, range_) != 1) ++stride_;
  }

  uint32_t Next() {
    for (;;) {
      const uint64_t k = next_.fetch_add(1, std::memory_order_relaxed);
      const uint32_t size =
          lo_ + static_cast<uint32_t>((offset_ + k * stride_) % range_);
      if (size != repeat_) return size;
    }
  }
  /// The size every repeated COUNT on this graph asks for.
  uint32_t repeat_size() const { return repeat_; }

 private:
  const uint32_t lo_;
  const uint32_t range_;
  uint32_t stride_;
  const uint32_t offset_;
  const uint32_t repeat_;
  std::atomic<uint64_t> next_{0};
};

struct OpRecord {
  OpKind kind = OpKind::kCount;
  std::string graph;
  uint64_t send_ns = 0;
  uint64_t recv_ns = 0;
  bool ok = false;
  std::string error;
  uint64_t triangles = 0;
  double server_seconds = 0;
  uint8_t source = 0;  // ResultSource of a COUNT
  Digest listed;       // LIST only
  int64_t step = -1;   // mutation step
  int64_t total_delta = 0;
  // LIST through the client-side sink (traced windows only).
  uint64_t emit_calls = 0;
  double emit_busy_s = 0;
  double finish_s = 0;
  uint64_t list_bytes = 0;  // LIST payload the server's sink wrote

  double latency_ms() const { return (recv_ns - send_ns) * 1e-6; }
};

/// The one mutation sequence all clients share: steps are issued one at a
/// time, in order, so the graph's states form a chain the checker can
/// replay.
struct MutationLog {
  std::mutex mutex;
  uint64_t next_step = 0;
  bool broken = false;  // a step failed; later steps would be invalid
  std::vector<std::pair<uint64_t, uint64_t>> times;  // per step: send, recv
};

/// Where a client is in its cycles; kept across windows.
struct ClientState {
  uint64_t ops = 0;
  uint64_t counts = 0;
};

struct Shared {
  const Inputs* in = nullptr;
  SizeWalk* rmat_sizes = nullptr;
  SizeWalk* hk_sizes = nullptr;
  std::string socket;
  opt::TraceRecorder* spans = nullptr;  // traced windows only
  MutationLog* mutations = nullptr;
  Clock::time_point origin;

  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             origin)
            .count());
  }
};

/// One closed-loop client for `seconds`.
void ClientLoop(const Shared& shared, uint32_t client, ClientState* state,
                double seconds, std::vector<OpRecord>* log) {
  opt::OptClient conn;
  if (Status s = conn.ConnectUnix(shared.socket); !s.ok()) {
    OpRecord failed;
    failed.error = "connect: " + s.ToString();
    log->push_back(failed);
    return;
  }
  const Inputs& in = *shared.in;
  const uint64_t phase = client * kCycle.size() / 4;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(seconds);
  while (Clock::now() < deadline) {
    OpRecord op;
    const char slot = kCycle[(phase + state->ops++) % kCycle.size()];
    const bool list = slot == 'L';
    const bool mutate = slot == 'M';
    const uint64_t trace_id = shared.spans ? opt::NewTraceId() : 0;
    if (list) {
      op.kind = OpKind::kList;
      op.graph = kHk;
      // The client's sink: the streamed triangles fold into a digest,
      // behind the timing decorator in traced windows.
      DigestSink digest;
      ScopedSpan root(shared.spans, "client.list", trace_id, 0);
      SpanContext context;
      context.trace_id = trace_id;
      context.parent_id = root.id();
      std::unique_ptr<TimingSink> timing;
      opt::TriangleSink* sink = &digest;
      if (shared.spans != nullptr) {
        timing = std::make_unique<TimingSink>(&digest, shared.spans, &context);
        sink = timing.get();
      }
      op.send_ns = shared.NowNs();
      auto end = conn.List(kHk, [&](const opt::ListBatch& batch) {
        ScopedSpan emit(shared.spans, "sink.emit", trace_id, root.id());
        for (const auto& record : batch.records) {
          sink->Emit(record.u, record.v, record.ws);
        }
        // The batch as the server's WireListSink encoded it.
        if (timing != nullptr) {
          op.list_bytes += opt::EncodeListBatch(batch).size();
        }
      });
      if (Status s = sink->Finish(); !s.ok()) end = s;
      op.listed = digest.digest();
      if (timing != nullptr) {
        op.emit_calls = timing->emit_calls();
        op.emit_busy_s = timing->emit_busy_s();
        op.finish_s = timing->finish_s();
      }
      op.recv_ns = shared.NowNs();
      op.ok = end.ok();
      if (end.ok()) {
        op.triangles = end->triangles;
        op.server_seconds = end->seconds;
      } else {
        op.error = end.status().ToString();
      }
    } else if (mutate) {
      op.kind = OpKind::kMutate;
      op.graph = kRmat;
      MutationLog& m = *shared.mutations;
      std::lock_guard<std::mutex> lock(m.mutex);
      if (m.broken) continue;
      op.step = static_cast<int64_t>(m.next_step++);
      const MutationChain::Step step = in.chain->At(op.step);
      ScopedSpan root(shared.spans,
                      step.add ? "client.add_edges" : "client.remove_edges",
                      trace_id, 0);
      op.send_ns = shared.NowNs();
      auto result = step.add ? conn.AddEdges(kRmat, step.edges)
                             : conn.RemoveEdges(kRmat, step.edges);
      op.recv_ns = shared.NowNs();
      m.times.emplace_back(op.send_ns, op.recv_ns);
      op.ok = result.ok();
      if (result.ok()) {
        op.server_seconds = result->seconds;
        op.total_delta = result->total_triangle_delta;
      } else {
        op.error = result.status().ToString();
        m.broken = true;
      }
    } else {
      op.kind = OpKind::kCount;
      const uint64_t c = state->counts++;
      const uint64_t pick = c % kCountCycle;
      const bool repeat = pick == kCountCycle - 1;
      const bool rmat = repeat ? (c / kCountCycle) % 2 == 0 : pick < 3;
      op.graph = rmat ? kRmat : kHk;
      SizeWalk& sizes = rmat ? *shared.rmat_sizes : *shared.hk_sizes;
      opt::ClientQueryOptions options;
      options.memory_pages = repeat ? sizes.repeat_size() : sizes.Next();
      ScopedSpan root(shared.spans, "client.count", trace_id, 0);
      op.send_ns = shared.NowNs();
      auto result = conn.Count(op.graph, options);
      op.recv_ns = shared.NowNs();
      op.ok = result.ok();
      if (result.ok()) {
        op.triangles = result->triangles;
        op.server_seconds = result->seconds;
        op.source = result->source;
      } else {
        op.error = result.status().ToString();
      }
    }
    log->push_back(std::move(op));
  }
}

/// Runs every client for `seconds`; returns all ops and the window wall.
std::vector<OpRecord> RunWindow(const Shared& shared,
                                std::vector<ClientState>* clients,
                                double seconds, double* wall_s) {
  std::vector<std::vector<OpRecord>> logs(clients->size());
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  for (uint32_t c = 0; c < clients->size(); ++c) {
    threads.emplace_back(ClientLoop, std::cref(shared), c, &(*clients)[c],
                         seconds, &logs[c]);
  }
  for (auto& t : threads) t.join();
  *wall_s = SecondsBetween(start, Clock::now());
  std::vector<OpRecord> all;
  for (auto& log : logs) {
    for (auto& op : log) all.push_back(std::move(op));
  }
  return all;
}

/// Checks every op against the oracle; wrong answers and errors fail.
void Check(const std::vector<OpRecord>& ops, const Inputs& in,
           const MutationLog& mutations, const Args& args, Outcome* out) {
  const int64_t perturb = args.perturb_expected;
  for (const OpRecord& op : ops) {
    ++out->attempted;
    if (!op.ok) {
      out->Fail(op.graph + ": " + op.error);
      continue;
    }
    if (op.kind == OpKind::kList) {
      Digest expected = in.hk;
      expected.count += perturb;
      if (!(op.listed == expected) || op.triangles != expected.count) {
        out->Fail("LIST hk: got " + op.listed.ToString() + " (trailer " +
                  std::to_string(op.triangles) + "), oracle " +
                  expected.ToString());
      }
    } else if (op.kind == OpKind::kMutate) {
      const int64_t expected =
          static_cast<int64_t>(in.chain->TrianglesAfter(op.step)) -
          static_cast<int64_t>(in.rmat_triangles) + perturb;
      if (op.total_delta != expected) {
        out->Fail("mutation step " + std::to_string(op.step) +
                  ": overlay delta " + std::to_string(op.total_delta) +
                  ", oracle " + std::to_string(expected));
      }
    } else if (op.graph == kHk) {
      if (op.triangles != in.hk.count + perturb) {
        out->Fail("COUNT hk: got " + std::to_string(op.triangles) +
                  ", oracle " + std::to_string(in.hk.count + perturb));
      }
    } else {
      // Any state live at some instant of [send, recv] is a legal answer.
      // State s (after step s) began inside step s's request and ended
      // inside step s+1's.
      const auto& times = mutations.times;
      const int64_t steps = static_cast<int64_t>(times.size());
      bool matched = false;
      std::string candidates;
      for (int64_t s = -1; s < steps && !matched; ++s) {
        const bool began = s < 0 || times[s].first <= op.recv_ns;
        const bool ended_before =
            s + 1 < steps && times[s + 1].second < op.send_ns;
        if (!began || ended_before) continue;
        const uint64_t expected = in.chain->TrianglesAfter(s) + perturb;
        matched = op.triangles == expected;
        candidates += " " + std::to_string(expected);
      }
      if (!matched) {
        out->Fail("COUNT rmat: got " + std::to_string(op.triangles) +
                  ", legal states:" + candidates);
      }
    }
  }
}

std::map<std::string, uint64_t> ParseStatsText(const std::string& text) {
  std::map<std::string, uint64_t> values;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    try {
      values[line.substr(0, eq)] = std::stoull(line.substr(eq + 1));
    } catch (const std::exception&) {
    }
  }
  return values;
}

/// Highest percentile with at least ten samples beyond it (the guide's
/// rule), as (label, value).
std::pair<std::string, double> Tail(const std::vector<double>& samples) {
  const size_t n = samples.size();
  int pct = 0;
  for (int p : {99, 95, 90, 75, 50}) {
    if (n * (100 - p) >= 1000) {
      pct = p;
      break;
    }
  }
  if (pct == 0) return {"p50", Median(samples)};
  return {"p" + std::to_string(pct), Quantile(samples, pct / 100.0)};
}

/// Process-wide counters diffed over a window (the server is in-process).
struct Counters {
  std::map<std::string, uint64_t> values;
  opt::IntersectCounters intersect;
  opt::PoolStatsSnapshot pool;

  static Counters Now(opt::BufferPool* pool) {
    Counters c;
    for (const char* name :
         {"io.requests", "io.retries", "opt.iterations",
          "opt.internal.cache_hits", "opt.external.cache_hits",
          "opt.perf.task_clock_ns"}) {
      c.values[name] = opt::Metrics().GetCounter(name)->value();
    }
    c.values["io.page_read_us"] =
        opt::Metrics().GetHistogram("io.page_read_us")->Snapshot().sum;
    c.intersect = opt::SnapshotIntersectCounters();
    c.pool = pool->stats().Snapshot();
    return c;
  }
};

}  // namespace

opt::Result<Outcome> RunServiceMixed(const Args& args) {
  Outcome out;
  opt::ThrottledEnv throttled(Env::Default(), kReadLatencyMicros);
  opt::TraceRecorder recorder;
  SpanContext no_context;  // service reads cannot be tied to one query
  TimingEnv timing_env(&throttled, &recorder, &no_context);
  timing_env.set_enabled(false);
  Env* server_env = args.trace ? static_cast<Env*>(&timing_env) : &throttled;
  const std::string socket = args.work_dir + "/svc.sock";

  // Set-up: inputs + oracle + mutation plan, then a started server with
  // both graphs loaded. Repeated; the last rig serves the run.
  Inputs in;
  std::unique_ptr<Rig> rig;
  OPT_ASSIGN_OR_RETURN(const double setup_s, TimeSetups(args, [&] {
    rig.reset();
    OPT_ASSIGN_OR_RETURN(in, PrepareInputs(args));
    OPT_ASSIGN_OR_RETURN(rig, StartRig(server_env, in, socket));
    return Status::OK();
  }));
  for (const auto& info : rig->registry.List()) {
    (info.name == kRmat ? in.rmat_pages : in.hk_pages) = info.num_pages;
  }
  out.provenance = {
      {"rmat_edges", std::to_string(in.rmat_edges)},
      {"rmat_triangles", std::to_string(in.rmat_triangles)},
      {"rmat_pages", std::to_string(in.rmat_pages)},
      {"hk_edges", std::to_string(in.hk_edges)},
      {"hk_triangles", std::to_string(in.hk.count)},
      {"hk_pages", std::to_string(in.hk_pages)},
      {"clients", std::to_string(std::min(HostCpus(), 4u))},
  };

  MutationLog mutations;
  SizeWalk rmat_sizes(in.rmat_pages, args.seed);
  SizeWalk hk_sizes(in.hk_pages, args.seed);
  std::vector<ClientState> clients(std::min(HostCpus(), 4u));
  Shared shared;
  shared.in = &in;
  shared.rmat_sizes = &rmat_sizes;
  shared.hk_sizes = &hk_sizes;
  shared.socket = socket;
  shared.mutations = &mutations;
  shared.origin = Clock::now();

  std::vector<OpRecord> all_ops;
  auto window = [&](double seconds, double* wall) {
    std::vector<OpRecord> ops = RunWindow(shared, &clients, seconds, wall);
    all_ops.insert(all_ops.end(), ops.begin(), ops.end());
    return ops;
  };
  double wall = 0;
  window(kWarmupSeconds, &wall);
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  double plain_wall = 0;
  const std::vector<OpRecord> plain = window(budget, &plain_wall);

  auto count_latencies = [](const std::vector<OpRecord>& ops) {
    std::vector<double> ms;
    for (const OpRecord& op : ops) {
      if (op.ok && op.kind == OpKind::kCount) ms.push_back(op.latency_ms());
    }
    return ms;
  };
  const std::vector<double> plain_count_ms = count_latencies(plain);

  std::vector<OpRecord> traced;
  double traced_wall = 0;
  Counters before;
  std::map<std::string, uint64_t> sched_before;
  opt::OptClient stats_client;
  if (args.trace) {
    OPT_RETURN_IF_ERROR(stats_client.ConnectUnix(socket));
    opt::Metrics().ResetAll();
    OPT_ASSIGN_OR_RETURN(auto stats, stats_client.StatsFull());
    sched_before = ParseStatsText(stats.text);
    before = Counters::Now(rig->registry.pool());
    timing_env.set_enabled(true);
    shared.spans = &recorder;
    traced = window(budget, &traced_wall);
    shared.spans = nullptr;
    timing_env.set_enabled(false);
  }

  Check(all_ops, in, mutations, args, &out);

  if (!args.trace) {
    std::vector<double> exec_s, mutation_ms, list_ms;
    // COUNT latency by graph and answer source (executed / coalesced /
    // cached), to see where the overall median falls.
    std::map<std::string, std::vector<double>> by_class;
    uint64_t queries = 0;
    for (const OpRecord& op : plain) {
      if (!op.ok) continue;
      if (op.kind == OpKind::kMutate) {
        mutation_ms.push_back(op.latency_ms());
        continue;
      }
      ++queries;
      if (op.kind == OpKind::kList) list_ms.push_back(op.latency_ms());
      if (op.kind == OpKind::kCount) {
        static const char* kSource[] = {"executed", "coalesced", "cached"};
        by_class[op.graph + "." + kSource[std::min<uint8_t>(op.source, 2)]]
            .push_back(op.latency_ms());
        if (op.source == 0) exec_s.push_back(op.server_seconds);
      }
    }
    out.values["setup_s"] = setup_s;
    out.values["run_s"] = Median(exec_s);
    out.values["query_p50_ms"] = Median(plain_count_ms);
    out.values["qps"] = queries / plain_wall;
    const auto [query_tail, query_tail_ms] = Tail(plain_count_ms);
    const auto [mutation_tail, mutation_tail_ms] = Tail(mutation_ms);
    out.info = {
        {"query_samples", static_cast<double>(plain_count_ms.size()), "count"},
        {"query_" + query_tail + "_ms", query_tail_ms, "ms"},
        {"executed_samples", static_cast<double>(exec_s.size()), "count"},
        {"mutation_samples", static_cast<double>(mutation_ms.size()), "count"},
        {"mutation_p50_ms", Median(mutation_ms), "ms"},
        {"mutation_" + mutation_tail + "_ms", mutation_tail_ms, "ms"},
        {"list_samples", static_cast<double>(list_ms.size()), "count"},
        {"list_p50_ms", Median(list_ms), "ms"},
        {"mutation_steps", static_cast<double>(mutations.times.size()), "count"},
        {"peak_rss_mb", PeakRssMb(), "MiB"},
    };
    for (const auto& [name, ms] : by_class) {
      out.info.push_back({"count." + name + "_samples",
                          static_cast<double>(ms.size()), "count"});
      out.info.push_back({"count." + name + "_p50_ms", Median(ms), "ms"});
    }
    rig.reset();
    return out;
  }

  // ---- per-layer numbers of the traced window ----
  const Counters after = Counters::Now(rig->registry.pool());
  OPT_ASSIGN_OR_RETURN(auto stats, stats_client.StatsFull());
  const std::map<std::string, uint64_t> sched_after = ParseStatsText(stats.text);
  auto delta = [&](const char* name) {
    return static_cast<double>(after.values.at(name) - before.values.at(name));
  };
  auto sched = [&](const std::string& name) {
    const std::string key = "scheduler." + name;
    const auto a = sched_after.find(key);
    const auto b = sched_before.find(key);
    return a == sched_after.end() || b == sched_before.end()
               ? 0.0
               : static_cast<double>(a->second - b->second);
  };
  auto hist_p50_ms = [&](const std::string& name) {
    for (const auto& h : stats.histograms) {
      if (h.name == name) return h.p50 / 1e3;
    }
    return 0.0;
  };

  const TimingEnv::Totals storage = timing_env.Take();
  double run_wall_s = 0;  // execution seconds the server reported
  uint64_t executed_triangles = 0;
  double unattributed = 0;
  uint64_t answered = 0;
  uint64_t emit_calls = 0, list_bytes = 0;
  double emit_busy = 0, finish = 0;
  std::vector<double> non_exec_ms, apply_ms;
  for (const OpRecord& op : traced) {
    if (!op.ok) continue;
    ++answered;
    unattributed +=
        std::max(0.0, op.latency_ms() * 1e-3 - op.server_seconds);
    if (op.kind == OpKind::kMutate) {
      apply_ms.push_back(op.server_seconds * 1e3);
      continue;
    }
    if (op.kind == OpKind::kList || op.source == 0) {
      run_wall_s += op.server_seconds;
      executed_triangles += op.triangles;
    }
    if (op.kind == OpKind::kCount && op.source == 0) {
      non_exec_ms.push_back(op.latency_ms() - op.server_seconds * 1e3);
    }
    emit_calls += op.emit_calls;
    list_bytes += op.list_bytes;
    emit_busy += op.emit_busy_s;
    finish += op.finish_s;
  }
  const opt::PoolStatsSnapshot pool =
      opt::PoolStatsSnapshot::Delta(after.pool, before.pool);
  const opt::IntersectCounters intersect =
      opt::IntersectCounters::Delta(after.intersect, before.intersect);
  const uint32_t run_threads = opt::SchedulerOptions().default_threads;

  auto& v = out.values;
  v["storage.reads"] = static_cast<double>(storage.reads);
  v["storage.read_bytes"] = static_cast<double>(storage.read_bytes);
  v["storage.read_busy_s"] = storage.read_busy_s;
  v["storage.read_us_p50"] = Median(storage.read_us);
  v["storage.reads_per_graph_page"] =
      static_cast<double>(storage.reads) / (in.rmat_pages + in.hk_pages);
  v["pool.internal_hits"] = delta("opt.internal.cache_hits");
  v["pool.external_hits"] = delta("opt.external.cache_hits");
  v["pool.hit_ratio"] =
      pool.lookups == 0 ? 0.0 : static_cast<double>(pool.hits) / pool.lookups;
  v["io.requests"] = delta("io.requests");
  v["io.retries"] = delta("io.retries");
  v["io.read_s"] = delta("io.page_read_us") * 1e-6;
  v["runner.iterations"] = delta("opt.iterations");
  v["runner.cpu_util"] = run_wall_s <= 0
                             ? 0.0
                             : delta("opt.perf.task_clock_ns") * 1e-9 /
                                   (run_wall_s * run_threads);
  v["intersect.calls"] = static_cast<double>(intersect.TotalCalls());
  v["intersect.elements"] = static_cast<double>(intersect.TotalElements());
  v["intersect.elements_per_triangle"] =
      v["intersect.elements"] / std::max<uint64_t>(1, executed_triangles);
  v["sink.emit_calls"] = static_cast<double>(emit_calls);
  v["sink.emit_busy_s"] = emit_busy;
  v["sink.finish_s"] = finish;
  v["sink.bytes"] = static_cast<double>(list_bytes);
  v["sched.executed"] = sched("executed");
  v["sched.coalesced"] = sched("coalesced");
  v["sched.cache_hits"] = sched("cache_hits");
  v["sched.rejected"] = sched("rejected");
  v["trace.overhead_ratio"] =
      Median(count_latencies(traced)) / Median(plain_count_ms);
  // Per op: client time not covered by the server's execution seconds.
  v["unattributed_s"] = unattributed / std::max<uint64_t>(1, answered);

  out.info = {
      {"traced_ops", static_cast<double>(traced.size()), "count"},
      {"traced_window_s", traced_wall, "s"},
      {"sched.queue_wait_ms_p50", hist_p50_ms("query.queue_wait_us"), "ms"},
      {"sched.exec_ms_p50", hist_p50_ms("query.exec_us"), "ms"},
      {"wire.non_exec_ms_p50", Median(non_exec_ms), "ms"},
      {"delta.apply_ms_p50", Median(apply_ms), "ms"},
      {"pool.evictions", static_cast<double>(pool.evictions), "count"},
  };
  const std::vector<opt::TraceEvent> events = recorder.Events();
  for (const auto& [name, self_s] : SelfSeconds(events)) {
    out.info.push_back({"self." + name, self_s, "s"});
  }
  const std::string trace_path =
      args.trace_out.empty() ? args.work_dir + "/trace.json" : args.trace_out;
  OPT_RETURN_IF_ERROR(recorder.WriteJson(trace_path));
  out.provenance.push_back({"trace_file", "\"" + trace_path + "\""});
  out.provenance.push_back({"trace_spans", std::to_string(events.size())});
  out.provenance.push_back(
      {"trace_dropped_spans", std::to_string(recorder.dropped())});
  stats_client.Close();
  rig.reset();
  return out;
}

}  // namespace perfbench
