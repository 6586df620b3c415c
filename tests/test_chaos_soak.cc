// Chaos/soak suite: a real opt_server on a FaultInjectingEnv, hammered
// by concurrent clients mixing COUNT, LIST, and LOADGRAPH while the
// device injects transient errors, torn reads, and latency spikes.
// Invariants under chaos:
//   * the process neither deadlocks nor crashes — every query answers
//     within the soak window;
//   * every non-degraded COUNT/LIST answer is exactly the oracle count
//     (faults may degrade a query to Unavailable, never corrupt it);
//   * the shared buffer pool keeps serving after degraded queries (no
//     stuck kInFlight frames).
// Runtime defaults to a few seconds; set OPT_SOAK_SECONDS for a longer
// nightly soak. The fault plan prints at start — any failure reproduces
// with `opt_server --fault-plan "<spec>"`.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen/erdos_renyi.h"
#include "graph/csr_graph.h"
#include "service/client.h"
#include "service/graph_registry.h"
#include "service/query_scheduler.h"
#include "service/server.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "storage/graph_store.h"
#include "test_helpers.h"

namespace opt {
namespace {

int SoakSeconds() {
  const char* override_sec = std::getenv("OPT_SOAK_SECONDS");
  if (override_sec != nullptr) {
    const int parsed = std::atoi(override_sec);
    if (parsed > 0) return parsed;
  }
  return 3;
}

TEST(ChaosSoak, MixedWorkloadUnderFaultsNeverCorruptsOrDeadlocks) {
  auto plan = FaultPlan::Parse(
      "seed=1337,read_error_p=0.03,transient=1,torn_read_p=0.01,"
      "latency_p=0.05,latency_us=300,path_filter=.pages");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::fprintf(stderr, "chaos fault plan: --fault-plan \"%s\"\n",
               plan->ToString().c_str());

  Env* base = Env::Default();
  FaultInjectingEnv fenv(base, *plan);

  CSRGraph g1 = GenerateErdosRenyi(300, 3200, 51);
  CSRGraph g2 = GenerateErdosRenyi(240, 2400, 52);
  const uint64_t oracle1 = testutil::OracleCount(g1);
  const uint64_t oracle2 = testutil::OracleCount(g2);
  // Build the stores fault-free; chaos targets the serving path.
  fenv.set_enabled(false);
  const std::string path1 = testutil::CreateStore(g1, &fenv, "g1");
  const std::string path2 = testutil::CreateStore(g2, &fenv, "g2");

  GraphRegistry registry(&fenv);
  SchedulerOptions scheduler_options;
  scheduler_options.workers = 4;
  scheduler_options.max_queue = 256;
  // Fresh executions, not cache echoes: every COUNT exercises the
  // fault-injected read path.
  scheduler_options.enable_result_cache = false;
  QueryScheduler scheduler(&registry, scheduler_options);
  ASSERT_TRUE(scheduler.LoadGraph("g1", path1).ok());
  ASSERT_TRUE(scheduler.LoadGraph("g2", path2).ok());

  OptServer server(&scheduler);
  ASSERT_TRUE(server.ListenTcp(0).ok());
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.bound_port();
  fenv.set_enabled(true);

  constexpr int kClients = 8;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> exact{0};
  std::atomic<uint64_t> degraded{0};
  std::atomic<uint64_t> reloads{0};
  std::atomic<int> failures{0};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      OptClient client;
      if (!client.ConnectTcp("127.0.0.1", port).ok()) {
        ++failures;
        return;
      }
      uint64_t q = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ++q;
        const bool use_g1 = (c + q) % 2 == 0;
        const std::string graph = use_g1 ? "g1" : "g2";
        const uint64_t expected = use_g1 ? oracle1 : oracle2;
        const uint64_t kind = (c + q) % 8;
        if (kind == 7 && c == 0) {
          // Periodic LOADGRAPH (reload in place) races the queries —
          // epochs bump, old pins stay valid, answers stay exact.
          if (client.LoadGraph(graph, use_g1 ? path1 : path2).ok()) {
            reloads.fetch_add(1, std::memory_order_relaxed);
          }
          continue;
        }
        if (kind % 2 == 0) {
          auto result = client.Count(graph);
          if (result.ok()) {
            if (result->triangles != expected) {
              ADD_FAILURE() << "wrong COUNT on " << graph << ": "
                            << result->triangles << " != " << expected;
              ++failures;
            } else {
              exact.fetch_add(1, std::memory_order_relaxed);
            }
          } else if (result.status().IsUnavailable()) {
            degraded.fetch_add(1, std::memory_order_relaxed);
          } else {
            ADD_FAILURE() << "unexpected COUNT error: "
                          << result.status().ToString();
            ++failures;
          }
        } else {
          uint64_t streamed = 0;
          auto end = client.List(graph, [&](const ListBatch& batch) {
            for (const auto& record : batch.records) {
              streamed += record.ws.size();
            }
          });
          if (end.ok()) {
            if (end->triangles != expected || streamed != expected) {
              ADD_FAILURE() << "wrong LIST on " << graph << ": trailer "
                            << end->triangles << " streamed " << streamed
                            << " != " << expected;
              ++failures;
            } else {
              exact.fetch_add(1, std::memory_order_relaxed);
            }
          } else if (end.status().IsUnavailable()) {
            degraded.fetch_add(1, std::memory_order_relaxed);
          } else {
            ADD_FAILURE() << "unexpected LIST error: "
                          << end.status().ToString();
            ++failures;
          }
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::seconds(SoakSeconds()));
  stop.store(true, std::memory_order_relaxed);
  // Join IS the no-deadlock assertion: a wedged query would hang the
  // soak here (and trip the ctest timeout).
  for (auto& t : clients) t.join();
  server.Stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(exact.load(), 0u) << "soak produced no successful queries";
  std::fprintf(stderr,
               "chaos soak: %llu exact, %llu degraded, %llu reloads, "
               "%llu injected read errors, %llu torn, %llu latency\n",
               static_cast<unsigned long long>(exact.load()),
               static_cast<unsigned long long>(degraded.load()),
               static_cast<unsigned long long>(reloads.load()),
               static_cast<unsigned long long>(
                   fenv.stats().injected_read_errors.load()),
               static_cast<unsigned long long>(
                   fenv.stats().injected_torn_reads.load()),
               static_cast<unsigned long long>(
                   fenv.stats().injected_latency.load()));

  // The pool survived the chaos: with injection off, the same server
  // stack (fresh connection; the server was stopped, so go straight at
  // the scheduler) still answers exactly.
  fenv.set_enabled(false);
  QuerySpec spec;
  spec.graph = "g1";
  const QueryResult final_check = scheduler.Run(spec);
  ASSERT_TRUE(final_check.status.ok()) << final_check.status.ToString();
  EXPECT_EQ(final_check.triangles, oracle1);
}

uint64_t CommonNeighborCount(const CSRGraph& g, VertexId u, VertexId v) {
  const auto nu = g.Neighbors(u);
  const auto nv = g.Neighbors(v);
  uint64_t n = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < nu.size() && j < nv.size()) {
    if (nu[i] < nv[j]) {
      ++i;
    } else if (nu[i] > nv[j]) {
      ++j;
    } else {
      ++n;
      ++i;
      ++j;
    }
  }
  return n;
}

// Streaming mutations join the chaos: one mutator toggles a fixed batch
// of absent edges (add, then remove, forever) while readers hammer
// COUNT/LIST and a long-poll snapshot. The batch is built so every
// partial application is distinguishable — pairwise vertex-disjoint
// edges, each closing at least one triangle on its own — which turns
// "no query observes a half-applied batch" into an exact two-point
// invariant: every healthy COUNT is T0 (batch absent) or T0+D (batch
// present), nothing in between. Degraded mutations must report
// Unavailable with the batch NOT applied: the mutator retries the same
// batch verbatim, and a typed already-present/not-present rejection on
// that retry would prove a silently half-committed batch.
TEST(ChaosSoak, StreamingMutationsUnderFaultsKeepEpochAtomicity) {
  auto plan = FaultPlan::Parse(
      "seed=4242,read_error_p=0.03,transient=1,torn_read_p=0.01,"
      "latency_p=0.05,latency_us=300,path_filter=.pages");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::fprintf(stderr, "chaos fault plan: --fault-plan \"%s\"\n",
               plan->ToString().c_str());

  Env* base = Env::Default();
  FaultInjectingEnv fenv(base, *plan);

  const CSRGraph g = GenerateErdosRenyi(260, 2600, 53);
  const uint64_t oracle = testutil::OracleCount(g);

  // The toggled batch: three pairwise vertex-disjoint absent edges,
  // each with at least one common neighbor in the base graph. Disjoint
  // endpoints mean no batch edge interacts with another, so the batch
  // delta is the sum of per-edge deltas and every prefix sum is
  // strictly between 0 and D — a half-applied batch cannot masquerade
  // as either legal state.
  std::vector<std::pair<VertexId, VertexId>> batch;
  std::vector<bool> used(g.num_vertices(), false);
  uint64_t batch_delta = 0;
  for (VertexId u = 0; u < g.num_vertices() && batch.size() < 3; ++u) {
    if (used[u]) continue;
    for (VertexId v = u + 1; v < g.num_vertices(); ++v) {
      if (used[v] || g.HasEdge(u, v)) continue;
      const uint64_t closes = CommonNeighborCount(g, u, v);
      if (closes == 0) continue;
      batch.emplace_back(u, v);
      batch_delta += closes;
      used[u] = used[v] = true;
      break;
    }
  }
  ASSERT_EQ(batch.size(), 3u) << "graph too sparse to build the batch";
  ASSERT_GT(batch_delta, 0u);

  fenv.set_enabled(false);
  const std::string path = testutil::CreateStore(g, &fenv, "gm");

  GraphRegistry registry(&fenv);
  SchedulerOptions scheduler_options;
  scheduler_options.workers = 4;
  scheduler_options.max_queue = 256;
  scheduler_options.enable_result_cache = false;
  QueryScheduler scheduler(&registry, scheduler_options);
  ASSERT_TRUE(scheduler.LoadGraph("g", path).ok());

  OptServer server(&scheduler);
  ASSERT_TRUE(server.ListenTcp(0).ok());
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.bound_port();
  fenv.set_enabled(true);

  const uint64_t lo = oracle;
  const uint64_t hi = oracle + batch_delta;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> exact{0};
  std::atomic<uint64_t> degraded{0};
  std::atomic<uint64_t> dirty_lists{0};
  std::atomic<uint64_t> applied{0};
  std::atomic<uint64_t> degraded_mutations{0};
  std::atomic<int> failures{0};

  // `present` is the mutator's mirror of whether the batch is applied.
  // It lives outside the thread so the post-soak cleanup can restore
  // the graph to its base state.
  bool present = false;
  std::thread mutator([&] {
    OptClient client;
    if (!client.ConnectTcp("127.0.0.1", port).ok()) {
      ++failures;
      return;
    }
    bool retrying = false;
    while (!stop.load(std::memory_order_relaxed)) {
      auto result = present ? client.RemoveEdges("g", batch)
                            : client.AddEdges("g", batch);
      if (result.ok()) {
        const int64_t want =
            present ? -static_cast<int64_t>(batch_delta)
                    : static_cast<int64_t>(batch_delta);
        if (result->batch_triangle_delta != want ||
            (result->total_triangle_delta != 0 &&
             result->total_triangle_delta !=
                 static_cast<int64_t>(batch_delta))) {
          ADD_FAILURE() << "mutation delta mismatch: batch "
                        << result->batch_triangle_delta << " want " << want
                        << ", total " << result->total_triangle_delta;
          ++failures;
        }
        present = !present;
        retrying = false;
        applied.fetch_add(1, std::memory_order_relaxed);
      } else if (result.status().IsUnavailable()) {
        // Contract: the batch was NOT applied. Retry it verbatim; if
        // the server had silently committed it, the retry would come
        // back InvalidArgument (already present / not present) below.
        degraded_mutations.fetch_add(1, std::memory_order_relaxed);
        retrying = true;
      } else {
        ADD_FAILURE() << "unexpected mutation error"
                      << (retrying ? " on verbatim retry (batch silently "
                                     "half-applied?)"
                                   : "")
                      << ": " << result.status().ToString();
        ++failures;
        return;
      }
    }
  });

  constexpr int kReaders = 6;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int c = 0; c < kReaders; ++c) {
    readers.emplace_back([&, c] {
      OptClient client;
      if (!client.ConnectTcp("127.0.0.1", port).ok()) {
        ++failures;
        return;
      }
      uint64_t q = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ++q;
        const uint64_t kind = (c + q) % 4;
        if (kind < 2) {
          // Epoch atomicity: a healthy COUNT is one of the two legal
          // states, never a partial batch.
          auto result = client.Count("g");
          if (result.ok()) {
            if (result->triangles != lo && result->triangles != hi) {
              ADD_FAILURE() << "COUNT observed half-applied batch: "
                            << result->triangles << " not in {" << lo << ", "
                            << hi << "}";
              ++failures;
            } else {
              exact.fetch_add(1, std::memory_order_relaxed);
            }
          } else if (result.status().IsUnavailable()) {
            degraded.fetch_add(1, std::memory_order_relaxed);
          } else {
            ADD_FAILURE() << "unexpected COUNT error: "
                          << result.status().ToString();
            ++failures;
          }
        } else if (kind == 2) {
          // LIST serves the pinned base store: exact T0 when the
          // overlay was clean at acquire, typed NotSupported while the
          // batch is applied, Unavailable when degraded.
          uint64_t streamed = 0;
          auto end = client.List("g", [&](const ListBatch& b) {
            for (const auto& record : b.records) {
              streamed += record.ws.size();
            }
          });
          if (end.ok()) {
            if (end->triangles != oracle || streamed != oracle) {
              ADD_FAILURE() << "wrong LIST: trailer " << end->triangles
                            << " streamed " << streamed << " != " << oracle;
              ++failures;
            } else {
              exact.fetch_add(1, std::memory_order_relaxed);
            }
          } else if (end.status().code() == StatusCode::kNotSupported) {
            dirty_lists.fetch_add(1, std::memory_order_relaxed);
          } else if (end.status().IsUnavailable()) {
            degraded.fetch_add(1, std::memory_order_relaxed);
          } else {
            ADD_FAILURE() << "unexpected LIST error: "
                          << end.status().ToString();
            ++failures;
          }
        } else {
          // Snapshot long-poll: the registry's delta state must be one
          // of the two legal batch states too.
          auto snap = client.SubscribeCount("g", 0, 0);
          if (snap.ok()) {
            if (snap->delta_triangles != 0 &&
                snap->delta_triangles != static_cast<int64_t>(batch_delta)) {
              ADD_FAILURE() << "SUBSCRIBE observed half-applied batch: delta "
                            << snap->delta_triangles;
              ++failures;
            } else if (snap->exact_known &&
                       snap->triangles != lo && snap->triangles != hi) {
              ADD_FAILURE() << "SUBSCRIBE total not a legal state: "
                            << snap->triangles;
              ++failures;
            }
          } else if (snap.status().IsUnavailable()) {
            degraded.fetch_add(1, std::memory_order_relaxed);
          } else {
            ADD_FAILURE() << "unexpected SUBSCRIBE error: "
                          << snap.status().ToString();
            ++failures;
          }
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::seconds(SoakSeconds()));
  stop.store(true, std::memory_order_relaxed);
  // Join IS the no-deadlock assertion.
  mutator.join();
  for (auto& t : readers) t.join();
  server.Stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(applied.load(), 0u) << "soak applied no mutations";
  EXPECT_GT(exact.load(), 0u) << "soak produced no successful reads";
  std::fprintf(stderr,
               "streaming chaos soak: %llu mutations (%llu degraded), "
               "%llu exact reads, %llu degraded reads, %llu dirty LISTs, "
               "%llu injected read errors, %llu torn\n",
               static_cast<unsigned long long>(applied.load()),
               static_cast<unsigned long long>(degraded_mutations.load()),
               static_cast<unsigned long long>(exact.load()),
               static_cast<unsigned long long>(degraded.load()),
               static_cast<unsigned long long>(dirty_lists.load()),
               static_cast<unsigned long long>(
                   fenv.stats().injected_read_errors.load()),
               static_cast<unsigned long long>(
                   fenv.stats().injected_torn_reads.load()));

  // Restore to base state with injection off and recheck exactly: the
  // overlay drains to empty and the count returns to the oracle.
  fenv.set_enabled(false);
  if (present) {
    const MutationResult cleanup =
        scheduler.ApplyDelta("g", DeltaKind::kRemove, batch);
    ASSERT_TRUE(cleanup.status.ok()) << cleanup.status.ToString();
  }
  QuerySpec spec;
  spec.graph = "g";
  const QueryResult final_check = scheduler.Run(spec);
  ASSERT_TRUE(final_check.status.ok()) << final_check.status.ToString();
  EXPECT_EQ(final_check.triangles, oracle);
}

}  // namespace
}  // namespace opt
