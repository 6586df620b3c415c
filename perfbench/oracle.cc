#include "oracle.h"

#include <algorithm>
#include <random>
#include <set>
#include <stdexcept>

#include "baselines/inmemory.h"
#include "gen/holme_kim.h"
#include "gen/rmat.h"
#include "graph/reorder.h"
#include "harness/datasets.h"

namespace perfbench {

using opt::CSRGraph;
using opt::Edge;
using opt::VertexId;

namespace {

uint64_t SplitMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint64_t TriangleHash(VertexId u, VertexId v, VertexId w) {
  return SplitMix(SplitMix(SplitMix(u) ^ v) ^ w);
}

/// Independent generator seeds per input, all derived from the run seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  return SplitMix(seed * 0x100000001B3ull + salt) | 1;
}

size_t CommonCount(const std::vector<VertexId>& a,
                   const std::vector<VertexId>& b) {
  size_t i = 0, j = 0, n = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++n, ++i, ++j;
    }
  }
  return n;
}

}  // namespace

void Digest::Add(VertexId u, VertexId v, std::span<const VertexId> ws) {
  count += ws.size();
  for (VertexId w : ws) hash_sum += TriangleHash(u, v, w);
}

std::string Digest::ToString() const {
  return std::to_string(count) + " triangles, hash " +
         std::to_string(hash_sum);
}

void DigestSink::Emit(VertexId u, VertexId v, std::span<const VertexId> ws) {
  Digest local;
  local.Add(u, v, ws);
  count_.fetch_add(local.count, std::memory_order_relaxed);
  hash_sum_.fetch_add(local.hash_sum, std::memory_order_relaxed);
}

Digest DigestSink::digest() const {
  return {count_.load(std::memory_order_relaxed),
          hash_sum_.load(std::memory_order_relaxed)};
}

Digest OracleDigest(const CSRGraph& graph, uint32_t threads) {
  DigestSink sink;
  opt::EdgeIteratorInMemory(graph, &sink, threads);
  return sink.digest();
}

CSRGraph TwitterGraph(uint64_t seed) {
  opt::DatasetSpec spec;
  for (const auto& candidate : opt::PaperDatasets(0)) {
    if (candidate.paper_name == "TWITTER") spec = candidate;
  }
  spec.scale = 18;
  spec.seed = DeriveSeed(seed, 103);
  return opt::BuildDataset(spec);
}

CSRGraph HolmeKimGraph(uint32_t log_vertices, uint64_t seed) {
  opt::HolmeKimOptions options;
  options.num_vertices = VertexId{1} << log_vertices;
  options.edges_per_vertex = 8;
  options.triad_probability = 0.9;
  options.seed = DeriveSeed(seed, 7);
  return opt::DegreeOrder(opt::GenerateHolmeKim(options)).graph;
}

CSRGraph SkewedRmatGraph(uint32_t scale, uint32_t edge_factor,
                         uint64_t seed) {
  opt::RmatOptions options;
  options.scale = scale;
  options.edge_factor = edge_factor;
  options.a = 0.57;
  options.b = 0.19;
  options.c = 0.19;
  options.d = 0.05;
  options.seed = DeriveSeed(seed, 14);
  return opt::DegreeOrder(opt::GenerateRmat(options)).graph;
}

MutationChain::MutationChain(const CSRGraph& base, uint64_t base_triangles,
                             uint64_t seed)
    : base_triangles_(base_triangles) {
  // Each edge closes a wedge u - x - v of the base graph, so adding it
  // creates at least one triangle and every step changes the count.
  std::mt19937_64 rng(DeriveSeed(seed, 99));
  std::set<Edge> chosen;
  const VertexId n = base.num_vertices();
  slot_edges_.resize(kSlots);
  for (auto& slot : slot_edges_) {
    for (uint64_t attempts = 0; slot.size() < kBatchEdges; ++attempts) {
      if (attempts > 1000000) {
        throw std::runtime_error("MutationChain: graph has too few wedges");
      }
      const VertexId u = static_cast<VertexId>(rng() % n);
      if (base.degree(u) == 0) continue;
      const auto nu = base.Neighbors(u);
      const VertexId x = nu[rng() % nu.size()];
      const auto nx = base.Neighbors(x);
      const VertexId v = nx[rng() % nx.size()];
      if (v == u || base.HasEdge(u, v)) continue;
      const Edge edge{std::min(u, v), std::max(u, v)};
      if (!chosen.insert(edge).second) continue;
      slot.push_back(edge);
    }
  }

  // Replay one full period on an adjacency copy to get exact counts.
  std::vector<std::vector<VertexId>> adj(n);
  for (VertexId v = 0; v < n; ++v) {
    const auto nv = base.Neighbors(v);
    adj[v].assign(nv.begin(), nv.end());
  }
  int64_t triangles = static_cast<int64_t>(base_triangles);
  const uint64_t table_steps = kWindow - 1 + 2ull * kSlots;
  triangles_after_.reserve(table_steps);
  for (uint64_t s = 0; s < table_steps; ++s) {
    const Step step = At(s);
    for (const auto& [u, v] : step.edges) {
      const int64_t closed = static_cast<int64_t>(CommonCount(adj[u], adj[v]));
      auto& au = adj[u];
      auto& av = adj[v];
      if (step.add) {
        au.insert(std::lower_bound(au.begin(), au.end(), v), v);
        av.insert(std::lower_bound(av.begin(), av.end(), u), u);
        triangles += closed;
      } else {
        au.erase(std::lower_bound(au.begin(), au.end(), v));
        av.erase(std::lower_bound(av.begin(), av.end(), u));
        triangles -= closed;
      }
    }
    triangles_after_.push_back(static_cast<uint64_t>(triangles));
  }
}

MutationChain::Step MutationChain::At(uint64_t s) const {
  // Ramp: add slots 0..window-1. Then alternate: remove the oldest live
  // slot, add the next one, cycling through the slots.
  if (s < kWindow) return {true, slot_edges_[s]};
  const uint64_t j = s - kWindow;
  if (j % 2 == 0) return {false, slot_edges_[(j / 2) % kSlots]};
  return {true, slot_edges_[(kWindow + (j - 1) / 2) % kSlots]};
}

uint64_t MutationChain::Canonical(uint64_t s) const {
  // The live set after step s repeats every 2 * slots steps once the
  // ramp (steps 0..window-1) is done.
  const uint64_t start = kWindow - 1;
  const uint64_t period = 2ull * kSlots;
  if (s < start + period) return s;
  return start + (s - start) % period;
}

uint64_t MutationChain::TrianglesAfter(int64_t s) const {
  if (s < 0) return base_triangles_;
  return triangles_after_[Canonical(static_cast<uint64_t>(s))];
}

}  // namespace perfbench
