// Sharded serving tests: partition planning, manifest round trips, the
// sharded wire extensions, multi-process COUNT/LIST/mutation routing
// through a real QueryRouter over real opt_server children, shard-kill
// chaos with partial_shards masks, and the connect-retry path.
//
// The sanitize/tsan presets build no tools, so this binary is its own
// shard server: when launched as `test_shard --shard-server-child ...`
// main() skips googletest and runs a minimal opt_server clone (same
// registry/scheduler/OptServer stack, same "listening on
// 127.0.0.1:<port>" stdout line ShardSet parses).
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baselines/inmemory.h"
#include "core/triangle_sink.h"
#include "distsim/distributed.h"
#include "gen/erdos_renyi.h"
#include "gen/holme_kim.h"
#include "gen/rmat.h"
#include "graph/builder.h"
#include "graph/csr_graph.h"
#include "service/client.h"
#include "service/graph_registry.h"
#include "service/query_scheduler.h"
#include "service/server.h"
#include "service/wire.h"
#include "shard/router.h"
#include "shard/shard_plan.h"
#include "shard/shard_set.h"
#include "storage/env.h"
#include "storage/graph_store.h"
#include "storage/record_scanner.h"
#include "util/cli.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "test_helpers.h"

namespace opt {
namespace {

using testutil::OracleCount;
using testutil::OracleTriangles;
using testutil::ProcessTempDir;

std::string SelfExe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  EXPECT_GT(n, 0);
  buf[n > 0 ? n : 0] = '\0';
  return buf;
}

/// Reconstructs the in-memory graph a shard store holds.
CSRGraph LoadStoreAsCSR(Env* env, const std::string& base_path) {
  auto store = GraphStore::Open(env, base_path);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  std::vector<Edge> edges;
  Status s = ScanRecords(**store, 0, (*store)->num_pages() - 1,
                         [&](VertexId u, const AdjacencyRef& adj) {
                           for (VertexId v : adj.succ()) {
                             edges.emplace_back(u, v);
                           }
                         });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return GraphBuilder::FromEdges(std::move(edges));
}

/// Partitions `g` under a unique temp prefix and returns the manifest.
ShardManifest MakePlan(const CSRGraph& g, uint32_t shards,
                       const std::string& tag) {
  static std::atomic<int> counter{0};
  const std::string prefix = ProcessTempDir() + "/shard_" + tag + "_" +
                             std::to_string(counter.fetch_add(1));
  ShardPlanOptions options;
  options.num_shards = shards;
  options.page_size = 256;
  auto manifest = PartitionGraph(g, Env::Default(), "g", prefix, options);
  EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
  return *manifest;
}

/// The AKM range rule from distsim, replicated inline: the executable
/// model the partitioner must agree with (promoted simulation).
std::vector<VertexId> AkmRangeEnds(const CSRGraph& g, uint32_t nodes) {
  const uint64_t share =
      std::max<uint64_t>(1, g.num_directed_edges() / nodes);
  std::vector<VertexId> ends;
  uint64_t acc = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    acc += g.degree(v);
    if (acc >= share && ends.size() + 1 < nodes) {
      ends.push_back(v + 1);
      acc = 0;
    }
  }
  while (ends.size() < nodes) ends.push_back(g.num_vertices());
  return ends;
}

// ---------------------------------------------------------------------
// Partition planning
// ---------------------------------------------------------------------

TEST(ShardPlan, RangeEndsMatchTheAkmSimulatorRule) {
  RmatOptions rmat;
  rmat.scale = 9;
  rmat.edge_factor = 8;
  rmat.seed = 11;
  const CSRGraph g = GenerateRmat(rmat);
  for (uint32_t n : {1u, 2u, 4u, 8u, 31u}) {
    EXPECT_EQ(ComputeRangeEnds(g, n), AkmRangeEnds(g, n)) << n;
  }
}

TEST(ShardPlan, RangesCoverEveryVertexContiguously) {
  const CSRGraph g = GenerateErdosRenyi(500, 2000, 3);
  for (uint32_t n : {1u, 3u, 7u}) {
    const std::vector<VertexId> ends = ComputeRangeEnds(g, n);
    ASSERT_EQ(ends.size(), n);
    EXPECT_EQ(ends.back(), g.num_vertices());
    for (size_t i = 1; i < ends.size(); ++i) {
      EXPECT_LE(ends[i - 1], ends[i]);
    }
  }
}

TEST(ShardPlan, MergedCountIsExactAcrossGraphFamiliesAndShardCounts) {
  RmatOptions rmat;
  rmat.scale = 9;
  rmat.edge_factor = 8;
  rmat.seed = 5;
  HolmeKimOptions hk;
  hk.num_vertices = 400;
  hk.edges_per_vertex = 4;
  hk.triad_probability = 0.4;
  hk.seed = 9;
  const CSRGraph graphs[] = {GenerateErdosRenyi(600, 4000, 17),
                             GenerateRmat(rmat), GenerateHolmeKim(hk)};
  Env* env = Env::Default();
  int tag = 0;
  for (const CSRGraph& g : graphs) {
    const uint64_t truth = OracleCount(g);
    for (uint32_t shards : {2u, 3u, 5u}) {
      const ShardManifest manifest =
          MakePlan(g, shards, "exact" + std::to_string(tag++));
      uint64_t merged = 0;
      uint64_t owned_edges = 0;
      for (const ShardInfo& info : manifest.shards) {
        const CSRGraph local = LoadStoreAsCSR(env, info.base_path);
        merged += OracleCount(local) - info.ghost_triangles;
        owned_edges += info.owned_edges;
      }
      EXPECT_EQ(merged, truth) << "shards=" << shards;
      EXPECT_EQ(owned_edges, g.num_edges());
    }
  }
}

TEST(ShardPlan, OwnershipFilteredListsUnionToTheGlobalTriangleSet) {
  RmatOptions rmat;
  rmat.scale = 8;
  rmat.edge_factor = 8;
  rmat.seed = 23;
  const CSRGraph g = GenerateRmat(rmat);
  const std::vector<Triangle> truth = OracleTriangles(g);
  const ShardManifest manifest = MakePlan(g, 4, "listset");
  std::vector<Triangle> merged;
  for (const ShardInfo& info : manifest.shards) {
    const CSRGraph local = LoadStoreAsCSR(Env::Default(), info.base_path);
    for (const Triangle& t : OracleTriangles(local)) {
      // The router's rule: keep a triangle only on the shard owning its
      // minimum vertex; everything else is a ghost duplicate.
      if (t.u >= info.range_lo && t.u < info.range_hi) {
        merged.push_back(t);
      }
    }
  }
  std::sort(merged.begin(), merged.end());
  ASSERT_EQ(merged.size(), truth.size());
  EXPECT_TRUE(std::equal(merged.begin(), merged.end(), truth.begin()));
}

TEST(ShardPlan, OwnerOfRoutesEveryVertexAndClampsPastTheEnd) {
  const CSRGraph g = GenerateErdosRenyi(200, 900, 8);
  const ShardManifest manifest = MakePlan(g, 3, "owner");
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const uint32_t owner = manifest.OwnerOf(v);
    ASSERT_LT(owner, manifest.num_shards());
    EXPECT_GE(v, manifest.shards[owner].range_lo);
    EXPECT_LT(v, manifest.shards[owner].range_hi);
  }
  EXPECT_EQ(manifest.OwnerOf(g.num_vertices() + 100),
            manifest.num_shards() - 1);
  EXPECT_EQ(manifest.OwnerOfEdge(5, 2), manifest.OwnerOf(2));
}

TEST(ShardPlan, ManifestSurvivesToStringParseAndSaveLoad) {
  const CSRGraph g = GenerateErdosRenyi(300, 1500, 4);
  const ShardManifest manifest = MakePlan(g, 4, "roundtrip");
  auto parsed = ShardManifest::Parse(manifest.ToString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->graph, manifest.graph);
  EXPECT_EQ(parsed->num_vertices, manifest.num_vertices);
  EXPECT_EQ(parsed->num_edges, manifest.num_edges);
  ASSERT_EQ(parsed->num_shards(), manifest.num_shards());
  for (uint32_t i = 0; i < manifest.num_shards(); ++i) {
    EXPECT_EQ(parsed->shards[i].range_lo, manifest.shards[i].range_lo);
    EXPECT_EQ(parsed->shards[i].range_hi, manifest.shards[i].range_hi);
    EXPECT_EQ(parsed->shards[i].ghost_triangles,
              manifest.shards[i].ghost_triangles);
    EXPECT_EQ(parsed->shards[i].base_path, manifest.shards[i].base_path);
  }
  const std::string path = ProcessTempDir() + "/manifest_rt";
  ASSERT_TRUE(manifest.Save(path).ok());
  auto loaded = ShardManifest::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->ToString(), manifest.ToString());
}

TEST(ShardPlan, ParseRejectsCorruptManifests) {
  const CSRGraph g = GenerateErdosRenyi(100, 400, 2);
  const ShardManifest manifest = MakePlan(g, 2, "corrupt");
  const std::string good = manifest.ToString();
  EXPECT_FALSE(ShardManifest::Parse("not a manifest").ok());
  // Drop the last shard line: count mismatch.
  std::string truncated = good;
  truncated.erase(truncated.rfind("shard "));
  EXPECT_FALSE(ShardManifest::Parse(truncated).ok());
  // A gap in the ranges.
  std::string gapped = good;
  const size_t pos = gapped.rfind("shard ");
  gapped.replace(pos, 7, "shard 9");
  EXPECT_FALSE(ShardManifest::Parse(gapped).ok());
}

TEST(ShardPlan, PromotedAkmSimulationStaysExactAndClosureBeatsSurrogates) {
  RmatOptions rmat;
  rmat.scale = 9;
  rmat.edge_factor = 8;
  rmat.seed = 31;
  const CSRGraph g = GenerateRmat(rmat);
  DistSimOptions options;
  options.nodes = 4;
  auto akm = SimulateAKM(g, options);
  ASSERT_TRUE(akm.ok()) << akm.status().ToString();
  // The simulator this partitioner was modeled on must itself be exact…
  EXPECT_EQ(akm->triangles, OracleCount(g));
  // …and the closure-edge replication the real shards carry must move
  // no more bytes than AKM's surrogate adjacency lists for the same
  // node count and identical vertex ranges.
  const ShardManifest manifest = MakePlan(g, 4, "akm");
  EXPECT_LE(manifest.replicated_bytes(), akm->shuffle_bytes);
}

// ---------------------------------------------------------------------
// Wire extensions
// ---------------------------------------------------------------------

TEST(ShardWire, ShardStatsResultRoundTrips) {
  ShardStatsResult stats;
  stats.graph = "web";
  for (uint32_t i = 0; i < 2; ++i) {
    ShardStatsEntry entry;
    entry.id = i;
    entry.address = "127.0.0.1:" + std::to_string(7000 + i);
    entry.healthy = i == 0;
    entry.pid = 4242 + i;
    entry.range_lo = i * 100;
    entry.range_hi = (i + 1) * 100;
    entry.epoch = 17 * (i + 1);
    entry.restarts = i;
    entry.requests = 1000 + i;
    entry.failures = i;
    entry.retries = 3 * i;
    entry.ghost_triangles = 7 + i;
    entry.latency_p50_micros = 120.5;
    entry.latency_p95_micros = 800.25;
    entry.latency_p99_micros = 1500.75;
    stats.shards.push_back(entry);
  }
  ShardStatsResult decoded;
  ASSERT_TRUE(
      DecodeShardStatsResult(EncodeShardStatsResult(stats), &decoded).ok());
  EXPECT_EQ(decoded.graph, "web");
  ASSERT_EQ(decoded.shards.size(), 2u);
  EXPECT_EQ(decoded.shards[1].address, "127.0.0.1:7001");
  EXPECT_EQ(decoded.shards[1].epoch, 34u);
  EXPECT_EQ(decoded.shards[0].healthy, 1);
  EXPECT_DOUBLE_EQ(decoded.shards[1].latency_p99_micros, 1500.75);
}

TEST(ShardWire, ShardStatsDecoderBoundsHostileCounts) {
  std::string payload;
  PutString(&payload, "g");
  PutU32(&payload, 0x00FFFFFFu);  // claims 16M entries, carries none
  ShardStatsResult out;
  EXPECT_TRUE(DecodeShardStatsResult(payload, &out).IsCorruption());
}

TEST(ShardWire, ResultTailsRoundTrip) {
  CountResult count;
  count.triangles = 99;
  count.partial_shards = 0b101;
  count.num_shards = 3;
  CountResult count2;
  ASSERT_TRUE(DecodeCountResult(EncodeCountResult(count), &count2).ok());
  EXPECT_EQ(count2.partial_shards, 0b101u);
  EXPECT_EQ(count2.num_shards, 3u);

  MutateResult mutate;
  mutate.epoch = 7;
  mutate.partial_shards = 0b10;
  mutate.num_shards = 2;
  MutateResult mutate2;
  ASSERT_TRUE(DecodeMutateResult(EncodeMutateResult(mutate), &mutate2).ok());
  EXPECT_EQ(mutate2.partial_shards, 0b10u);
  EXPECT_EQ(mutate2.num_shards, 2u);

  SubscribeCountResult sub;
  sub.epoch = 3;
  sub.partial_shards = 1;
  sub.num_shards = 4;
  SubscribeCountResult sub2;
  ASSERT_TRUE(
      DecodeSubscribeCountResult(EncodeSubscribeCountResult(sub), &sub2)
          .ok());
  EXPECT_EQ(sub2.partial_shards, 1u);
  EXPECT_EQ(sub2.num_shards, 4u);

  ListEnd end;
  end.triangles = 12;
  end.partial_shards = 0b1000;
  end.num_shards = 4;
  ListEnd end2;
  ASSERT_TRUE(DecodeListEnd(EncodeListEnd(end), &end2).ok());
  EXPECT_EQ(end2.partial_shards, 0b1000u);
  EXPECT_EQ(end2.num_shards, 4u);
}

// ---------------------------------------------------------------------
// Multi-process integration
// ---------------------------------------------------------------------

/// Spawns `shards` self-exec server children over a fresh partition of
/// `g` plus a router, and tears everything down on destruction.
class RouterHarness {
 public:
  RouterHarness(const CSRGraph& g, uint32_t shards, const std::string& tag,
                std::vector<std::string> extra_args = {},
                uint32_t probe_interval_ms = 100)
      : manifest_(MakePlan(g, shards, tag)) {
    ShardSetOptions options;
    options.command = {SelfExe(), "--shard-server-child"};
    options.extra_args = std::move(extra_args);
    options.probe_interval_ms = probe_interval_ms;
    shard_set_ = std::make_unique<ShardSet>(manifest_, options);
    Status s = shard_set_->Spawn();
    EXPECT_TRUE(s.ok()) << s.ToString();
    if (!s.ok()) return;
    EXPECT_TRUE(shard_set_->WaitHealthy(20000));
    RouterOptions router_options;
    router_options.workers = 4;
    router_options.shard_deadline_ms = 20000;
    router_ = std::make_unique<QueryRouter>(shard_set_.get(),
                                            router_options);
    s = router_->ListenTcp(0);
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_TRUE(router_->Start().ok());
    ready_ = true;
  }

  ~RouterHarness() {
    if (router_) router_->Stop();
    if (shard_set_) shard_set_->Stop();
  }

  Status Connect(OptClient* client) {
    return client->ConnectTcp("127.0.0.1", router_->bound_port());
  }

  const ShardManifest& manifest() const { return manifest_; }
  ShardSet& shards() { return *shard_set_; }
  bool ready() const { return ready_; }

 private:
  ShardManifest manifest_;
  std::unique_ptr<ShardSet> shard_set_;
  std::unique_ptr<QueryRouter> router_;
  bool ready_ = false;
};

TEST(ShardService, FourProcessMergedCountAndListMatchSingleProcessTruth) {
  RmatOptions rmat;
  rmat.scale = 9;
  rmat.edge_factor = 8;
  rmat.seed = 77;
  const CSRGraph g = GenerateRmat(rmat);
  const uint64_t truth = OracleCount(g);
  const std::vector<Triangle> truth_list = OracleTriangles(g);

  RouterHarness harness(g, 4, "mp4");
  ASSERT_TRUE(harness.ready());
  OptClient client;
  ASSERT_TRUE(harness.Connect(&client).ok());

  auto count = client.Count("g");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->triangles, truth);
  EXPECT_EQ(count->num_shards, 4u);
  EXPECT_EQ(count->partial_shards, 0u);

  // Shards stream in id order, so every record's root vertex must fall
  // in a non-decreasing shard range (the stream within a shard follows
  // the server's own batch order); the merged set must be exactly the
  // global triangle list.
  std::vector<Triangle> listed;
  uint32_t last_shard = 0;
  bool shard_ordered = true;
  auto end = client.List("g", [&](const ListBatch& batch) {
    for (const ListBatch::Record& record : batch.records) {
      const uint32_t shard = harness.manifest().OwnerOf(record.u);
      if (shard < last_shard) shard_ordered = false;
      last_shard = shard;
      for (VertexId w : record.ws) {
        listed.push_back(Triangle{record.u, record.v, w});
      }
    }
  });
  ASSERT_TRUE(end.ok()) << end.status().ToString();
  EXPECT_EQ(end->triangles, truth);
  EXPECT_EQ(end->partial_shards, 0u);
  EXPECT_TRUE(shard_ordered);
  std::sort(listed.begin(), listed.end());
  ASSERT_EQ(listed.size(), truth_list.size());
  EXPECT_TRUE(
      std::equal(listed.begin(), listed.end(), truth_list.begin()));

  // Unknown graph names fail with the serving graph spelled out.
  auto wrong = client.Count("nope");
  EXPECT_TRUE(wrong.status().IsNotFound());

  // SHARD_STATS reports four healthy shards covering the vertex space.
  auto stats = client.ShardStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->shards.size(), 4u);
  for (const ShardStatsEntry& entry : stats->shards) {
    EXPECT_EQ(entry.healthy, 1) << entry.id;
    EXPECT_NE(entry.pid, 0u);
  }
  EXPECT_EQ(stats->shards.back().range_hi, g.num_vertices());
}

TEST(ShardService, TracedCountAssemblesOneTreeAcrossRouterAndShards) {
  // The acceptance path for distributed tracing: a traced COUNT through
  // a 4-shard router must yield ONE merged trace where the router's
  // rpc.count spans parent each shard's query.count span under a single
  // trace id, and AssembleTrace renders it as valid Perfetto JSON with
  // cross-process flow arrows.
  RmatOptions rmat;
  rmat.scale = 8;
  rmat.edge_factor = 8;
  rmat.seed = 99;
  const CSRGraph g = GenerateRmat(rmat);
  const uint64_t truth = OracleCount(g);

  RouterHarness harness(g, 4, "trace");
  ASSERT_TRUE(harness.ready());

  // This test process is the router process; give it its own recorder.
  TraceRecorder recorder;
  StartTracing(&recorder);

  OptClient client;
  ASSERT_TRUE(harness.Connect(&client).ok());
  const uint64_t trace_id = NewTraceId();
  ASSERT_NE(trace_id, 0u);
  {
    TraceContextScope scope({trace_id, 0});
    auto count = client.Count("g");
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_EQ(count->triangles, truth);
    EXPECT_EQ(count->partial_shards, 0u);
  }

  // One pull at the front door drains the whole fleet: the router's
  // section plus one per shard child.
  auto pulled = client.TracePull(/*drain=*/true);
  StopTracing();
  ASSERT_TRUE(pulled.ok()) << pulled.status().ToString();
  ASSERT_GE(pulled->processes.size(), 5u);

  const uint64_t router_pid = static_cast<uint64_t>(::getpid());
  std::set<uint64_t> pids_in_trace;
  std::set<uint64_t> rpc_span_ids;      // router-side per-shard spans
  uint64_t router_span_id = 0;          // the request's root span
  size_t shard_query_spans = 0;
  size_t linked_shard_spans = 0;
  for (const ProcessTrace& section : pulled->processes) {
    for (const TraceEvent& event : section.events) {
      if (event.trace_id != trace_id) continue;
      pids_in_trace.insert(section.pid);
      if (section.pid == router_pid) {
        if (event.name == "router.count") router_span_id = event.span_id;
        if (event.name == "rpc.count") rpc_span_ids.insert(event.span_id);
      } else if (event.name == "query.count") {
        ++shard_query_spans;
        if (rpc_span_ids.count(event.parent_span_id)) {
          ++linked_shard_spans;
        }
      }
    }
  }
  // Spans from the router AND at least two distinct shard processes
  // share the trace id (all four shards answered a complete COUNT).
  EXPECT_GE(pids_in_trace.size(), 3u);
  EXPECT_TRUE(pids_in_trace.count(router_pid));
  ASSERT_NE(router_span_id, 0u);
  ASSERT_EQ(rpc_span_ids.size(), 4u);
  EXPECT_EQ(shard_query_spans, 4u);
  // Every shard span's remote parent is one of the router's rpc spans.
  EXPECT_EQ(linked_shard_spans, shard_query_spans);

  const std::string json = AssembleTrace(pulled->processes);
  EXPECT_TRUE(testutil::JsonChecker(json).Valid());
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  // Cross-process parent/child pairs become flow arrows ('s' → 'f').
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);

  // The drain emptied every ring: a second pull has no spans from this
  // trace (spans are reported exactly once).
  auto again = client.TracePull(/*drain=*/true);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  for (const ProcessTrace& section : again->processes) {
    for (const TraceEvent& event : section.events) {
      EXPECT_NE(event.trace_id, trace_id) << event.name;
    }
  }
}

TEST(ShardService, MutationsRouteByEdgeOwnerAndRestoreOnUndo) {
  // Two K5 cliques; degree-balanced ranges split exactly between them,
  // so every edge's triangles are interior to its own shard and the
  // incremental deltas are exact.
  std::vector<Edge> edges;
  for (VertexId base : {0u, 5u}) {
    for (VertexId i = 0; i < 5; ++i) {
      for (VertexId j = i + 1; j < 5; ++j) {
        edges.emplace_back(base + i, base + j);
      }
    }
  }
  const CSRGraph g = GraphBuilder::FromEdges(edges);
  ASSERT_EQ(OracleCount(g), 20u);

  RouterHarness harness(g, 2, "mut");
  ASSERT_TRUE(harness.ready());
  ASSERT_EQ(harness.manifest().shards[0].range_hi, 5u);
  OptClient client;
  ASSERT_TRUE(harness.Connect(&client).ok());

  const uint64_t epoch0 = client.Count("g").ok() ? 0 : 0;  // warm stores
  (void)epoch0;

  // One removal per clique: the batch splits across both shards.
  auto removed = client.RemoveEdges("g", {{0, 1}, {5, 6}});
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(removed->edges_applied, 2u);
  EXPECT_EQ(removed->batch_triangle_delta, -6);
  EXPECT_EQ(removed->partial_shards, 0u);
  EXPECT_EQ(removed->num_shards, 2u);

  auto count = client.Count("g");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->triangles, 14u);

  // The router's virtual epoch is monotone across the mutation.
  auto snap = client.SubscribeCount("g", 0, 0);
  ASSERT_TRUE(snap.ok());
  EXPECT_GE(snap->epoch, removed->epoch);
  EXPECT_EQ(snap->edges_removed, 2u);

  auto added = client.AddEdges("g", {{0, 1}, {5, 6}});
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(added->batch_triangle_delta, 6);
  EXPECT_GT(added->epoch, removed->epoch);

  count = client.Count("g");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->triangles, 20u);

  // Server-side validation still reaches the client typed: adding a
  // present edge is InvalidArgument from the owning shard, and the
  // other shard's sub-batch never splits the difference (all-or-nothing
  // per shard, reported via the mask contract only on transport
  // failures — validation rejections fail the whole request).
  auto dup = client.AddEdges("g", {{0, 1}});
  EXPECT_TRUE(dup.status().IsInvalidArgument());
}

TEST(ShardService, ShardKillChaosSetsTheMaskThenRecovers) {
  RmatOptions rmat;
  rmat.scale = 9;
  rmat.edge_factor = 8;
  rmat.seed = 123;
  const CSRGraph g = GenerateRmat(rmat);
  const uint64_t truth = OracleCount(g);

  RouterHarness harness(g, 4, "chaos", {}, /*probe_interval_ms=*/50);
  ASSERT_TRUE(harness.ready());

  // Per-shard contributions let us check that a masked answer equals
  // the truth minus exactly the dead shard's share.
  std::vector<uint64_t> contribution;
  for (const ShardInfo& info : harness.manifest().shards) {
    const CSRGraph local = LoadStoreAsCSR(Env::Default(), info.base_path);
    contribution.push_back(OracleCount(local) - info.ghost_triangles);
  }

  OptClient client;
  ASSERT_TRUE(harness.Connect(&client).ok());
  ASSERT_EQ(client.Count("g")->triangles, truth);

  const uint32_t victim = 2;
  const uint64_t epoch_before = harness.shards().epoch(victim);
  const pid_t pid = harness.shards().pid(victim);
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);

  // Query storm through the kill window: every reply must be either
  // complete and exact, or masked with exactly the victim's bit and
  // short by exactly the victim's contribution.
  bool saw_partial = false;
  for (int i = 0; i < 200; ++i) {
    OptClient storm;
    ASSERT_TRUE(harness.Connect(&storm).ok());
    auto result = storm.Count("g");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (result->partial_shards != 0) {
      EXPECT_EQ(result->partial_shards, 1ull << victim);
      EXPECT_EQ(result->triangles, truth - contribution[victim]);
      saw_partial = true;
    } else {
      EXPECT_EQ(result->triangles, truth);
    }
    if (saw_partial && result->partial_shards == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // The supervisor must respawn the shard and service must converge
  // back to complete answers.
  bool recovered = false;
  for (int i = 0; i < 400 && !recovered; ++i) {
    auto result = client.Count("g");
    if (result.ok() && result->partial_shards == 0 &&
        result->triangles == truth && harness.shards().healthy(victim)) {
      recovered = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }
  EXPECT_TRUE(recovered);
  EXPECT_GE(harness.shards().restarts(victim), 1u);
  EXPECT_GE(harness.shards().total_restarts(), 1u);
  // Restart-monotonic epochs never regress across the respawn.
  EXPECT_GE(harness.shards().epoch(victim), epoch_before);
}

TEST(ShardService, ConnectRetryAbsorbsASlowStartingShard) {
  const CSRGraph g = GenerateErdosRenyi(300, 1500, 41);
  const uint64_t truth = OracleCount(g);
  const ShardManifest manifest = MakePlan(g, 1, "retry");

  // Reserve a port, then attach the shard set to it while nothing is
  // listening yet.
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const uint16_t port = ntohs(addr.sin_port);
  ::close(probe);

  ShardSet shards(manifest, {});
  ASSERT_TRUE(shards.Attach({{"127.0.0.1", port}}).ok());
  RouterOptions options;
  options.connect_retry.max_attempts = 40;
  options.connect_retry.backoff_base_micros = 20000;
  options.connect_retry.backoff_max_micros = 50000;
  QueryRouter router(&shards, options);
  ASSERT_TRUE(router.ListenTcp(0).ok());
  ASSERT_TRUE(router.Start().ok());

  const uint64_t retries_before =
      Metrics().GetCounter("router.retries")->value();

  // Bring the shard up in-process ~200ms after the query starts dialing.
  Env* env = Env::Default();
  GraphRegistry registry(env, {});
  QueryScheduler scheduler(&registry, {});
  ASSERT_TRUE(
      scheduler.LoadGraph("g", manifest.shards[0].base_path).ok());
  OptServer server(&scheduler);
  std::thread late_start([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ASSERT_TRUE(server.ListenTcp(port).ok());
    ASSERT_TRUE(server.Start().ok());
  });

  OptClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", router.bound_port()).ok());
  auto result = client.Count("g");
  late_start.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->triangles, truth);
  EXPECT_EQ(result->partial_shards, 0u);
  // The slow start was absorbed by the bounded backoff loop, and the
  // retries are visible in the metrics registry.
  EXPECT_GT(Metrics().GetCounter("router.retries")->value(),
            retries_before);

  router.Stop();
  shards.Stop();
  server.Stop();
}

TEST(ShardService, SoakStormAcrossRepeatedKills) {
  // Short by default; OPT_SOAK_SECONDS extends it in the nightly lane.
  uint64_t budget_seconds = 2;
  if (const char* env = std::getenv("OPT_SOAK_SECONDS")) {
    budget_seconds = std::strtoull(env, nullptr, 10);
  }
  RmatOptions rmat;
  rmat.scale = 8;
  rmat.edge_factor = 8;
  rmat.seed = 99;
  const CSRGraph g = GenerateRmat(rmat);
  const uint64_t truth = OracleCount(g);
  RouterHarness harness(g, 4, "soak", {}, /*probe_interval_ms=*/50);
  ASSERT_TRUE(harness.ready());
  std::vector<uint64_t> contribution;
  for (const ShardInfo& info : harness.manifest().shards) {
    const CSRGraph local = LoadStoreAsCSR(Env::Default(), info.base_path);
    contribution.push_back(OracleCount(local) - info.ghost_triangles);
  }

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(budget_seconds);
  uint64_t queries = 0, partials = 0, kills = 0;
  uint32_t victim = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    if (queries % 40 == 20) {
      const pid_t pid = harness.shards().pid(victim);
      if (pid > 0 && ::kill(pid, SIGKILL) == 0) ++kills;
      victim = (victim + 1) % 4;
    }
    OptClient client;
    ASSERT_TRUE(harness.Connect(&client).ok());
    auto result = client.Count("g");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ++queries;
    uint64_t expected = truth;
    for (uint32_t i = 0; i < 4; ++i) {
      if (result->partial_shards & (1ull << i)) expected -= contribution[i];
    }
    ASSERT_EQ(result->triangles, expected)
        << "mask=" << result->partial_shards;
    if (result->partial_shards != 0) ++partials;
  }
  EXPECT_GT(queries, 0u);
  // Every kill eventually heals: wait for a final complete answer.
  bool recovered = false;
  OptClient client;
  ASSERT_TRUE(harness.Connect(&client).ok());
  for (int i = 0; i < 400 && !recovered; ++i) {
    auto result = client.Count("g");
    recovered = result.ok() && result->partial_shards == 0 &&
                result->triangles == truth;
    if (!recovered) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }
  EXPECT_TRUE(recovered) << "kills=" << kills << " partials=" << partials;
}

}  // namespace
}  // namespace opt

namespace {

/// Minimal opt_server clone for self-exec children (the sanitize preset
/// builds no tools). Accepts the flags ShardSet appends (--port,
/// --graph name=path) plus --workers/--default_pages/--no_cache, prints
/// the same "listening on" line, and runs until SIGTERM kills it.
int RunShardServerChild(int argc, char** argv) {
  using namespace opt;
  auto cl = CommandLine::Parse(argc, argv);
  if (!cl.ok()) {
    std::fprintf(stderr, "%s\n", cl.status().ToString().c_str());
    return 2;
  }
  // Default-on bounded tracing, like the real opt_server: router tests
  // pull this ring over TRACE_PULL to assemble the fleet trace.
  static TraceRecorder trace_recorder(1u << 14);
  if (!cl->GetBool("no_trace", false)) StartTracing(&trace_recorder);
  Env* env = Env::Default();
  GraphRegistry registry(env, {});
  SchedulerOptions scheduler_options;
  scheduler_options.workers =
      static_cast<uint32_t>(cl->GetInt("workers", 2));
  scheduler_options.default_memory_pages =
      static_cast<uint32_t>(cl->GetInt("default_pages", 64));
  scheduler_options.enable_result_cache = !cl->GetBool("no_cache", false);
  QueryScheduler scheduler(&registry, scheduler_options);
  const std::string spec = cl->GetString("graph");
  const size_t eq = spec.find('=');
  if (eq == std::string::npos) {
    std::fprintf(stderr, "need --graph name=/path\n");
    return 2;
  }
  if (Status s = scheduler.LoadGraph(spec.substr(0, eq), spec.substr(eq + 1));
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  OptServer server(&scheduler);
  Status status =
      server.ListenTcp(static_cast<uint16_t>(cl->GetInt("port", 0)));
  if (status.ok()) status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("listening on 127.0.0.1:%u\n", server.bound_port());
  std::fflush(stdout);
  for (;;) ::pause();  // SIGTERM/SIGKILL from the supervisor ends us
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--shard-server-child") == 0) {
    return RunShardServerChild(argc, argv);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
