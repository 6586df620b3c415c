// Seeded inputs and the in-memory oracle every answer is checked against.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/triangle_sink.h"
#include "graph/builder.h"
#include "graph/csr_graph.h"
#include "util/status.h"

namespace perfbench {

/// Order-independent summary of a triangle set: how many, plus the sum of
/// a 64-bit hash of each (u, v, w). Equal digests mean the same multiset
/// with overwhelming probability.
struct Digest {
  uint64_t count = 0;
  uint64_t hash_sum = 0;

  bool operator==(const Digest&) const = default;
  void Add(opt::VertexId u, opt::VertexId v,
           std::span<const opt::VertexId> ws);
  std::string ToString() const;
};

/// Thread-safe sink folding emitted triangles into a Digest.
class DigestSink : public opt::TriangleSink {
 public:
  void Emit(opt::VertexId u, opt::VertexId v,
            std::span<const opt::VertexId> ws) override;
  Digest digest() const;

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> hash_sum_{0};
};

/// The oracle: EdgeIteratorInMemory over the in-memory graph.
Digest OracleDigest(const opt::CSRGraph& graph, uint32_t threads);

/// The TWITTER(synth) stand-in of PaperDatasets at scale 18, R-MAT seed
/// derived from `seed`, degree-ordered.
opt::CSRGraph TwitterGraph(uint64_t seed);
/// Holme–Kim with 2^`log_vertices` vertices, m = 8, triad probability
/// 0.9, degree-ordered.
opt::CSRGraph HolmeKimGraph(uint32_t log_vertices, uint64_t seed);
/// Skewed R-MAT (a = 0.57, b = c = 0.19), degree-ordered.
opt::CSRGraph SkewedRmatGraph(uint32_t scale, uint32_t edge_factor,
                              uint64_t seed);

/// A deterministic, endless sequence of ADD_EDGES / REMOVE_EDGES batches
/// on one graph, with the exact triangle count after every step. Edges
/// come from kSlots disjoint batches of kBatchEdges non-edges, each edge
/// closing at least one triangle; kWindow batches are live at a time.
/// After the ramp the state sequence is periodic, so a finite table
/// covers any run length.
class MutationChain {
 public:
  MutationChain(const opt::CSRGraph& base, uint64_t base_triangles,
                uint64_t seed);

  struct Step {
    bool add = true;
    std::vector<opt::Edge> edges;
  };
  /// The batch applied at step `s` (0-based).
  Step At(uint64_t s) const;
  /// Triangle count of the graph after step `s`; s = -1 is the base.
  uint64_t TrianglesAfter(int64_t s) const;

 private:
  uint64_t Canonical(uint64_t s) const;

  static constexpr uint32_t kSlots = 64;
  static constexpr uint32_t kWindow = 16;
  static constexpr uint32_t kBatchEdges = 4;
  static_assert(0 < kWindow && kWindow < kSlots);

  uint64_t base_triangles_;
  std::vector<std::vector<opt::Edge>> slot_edges_;
  std::vector<uint64_t> triangles_after_;  // canonical steps
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
