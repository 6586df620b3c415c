// In-memory triangulation baselines (paper §2.2): VertexIterator≻
// (Algorithm 1), EdgeIterator≻ (Algorithm 2), and a brute-force oracle
// for tests. These assume the whole graph fits in memory.
#ifndef OPT_BASELINES_INMEMORY_H_
#define OPT_BASELINES_INMEMORY_H_

#include <cstdint>

#include "core/triangle_sink.h"
#include "graph/csr_graph.h"

namespace opt {

/// EdgeIterator≻ (Algorithm 2): for each edge (u, v), emits
/// n_succ(u) ∩ n_succ(v). O(α|E|) with the ordered lists.
void EdgeIteratorInMemory(const CSRGraph& g, TriangleSink* sink,
                          uint32_t num_threads = 1);

/// VertexIterator≻ (Algorithm 1): for each vertex u, checks each pair
/// (v, w) ∈ n_succ(u) × n_succ(u) with id(v) < id(w) against E.
void VertexIteratorInMemory(const CSRGraph& g, TriangleSink* sink,
                            uint32_t num_threads = 1);

/// Brute force over all vertex triples (tests only; O(n^3) on dense
/// bitsets, tolerable for n up to a few thousand).
uint64_t BruteForceTriangleCount(const CSRGraph& g);

}  // namespace opt

#endif  // OPT_BASELINES_INMEMORY_H_
