// The OPT framework's three plug points (paper §3.2/§3.5): identifying
// internal triangles, identifying external candidate vertices, and
// identifying external triangles. Instances exist for the edge-iterator
// model (Algorithms 6/8/10) and the vertex-iterator model (Algorithms
// 11/12/13); MGT plugs in as a degenerate configuration (§3.5).
#ifndef OPT_CORE_ITERATOR_MODEL_H_
#define OPT_CORE_ITERATOR_MODEL_H_

#include <vector>

#include "core/page_range_view.h"
#include "core/successor_index.h"
#include "core/triangle_sink.h"
#include "graph/intersect.h"
#include "storage/graph_store.h"
#include "storage/page.h"

namespace opt {

/// Reusable per-thread scratch to keep the inner loops allocation-free.
/// Both models intersect by mark-and-probe: the bits of one successor
/// list are set in `marker`, every list it meets is probed against them,
/// and the set words are zeroed again, so `marker` is all zero between
/// calls. A marker too small for the ids it meets grows (a reallocation),
/// so callers that know |V| size it up front. Each scratch starts on its
/// own cache line: per-thread scratches sit side by side in one vector,
/// and their owners write them on every probe.
struct alignas(64) ModelScratch {
  ModelScratch() = default;
  explicit ModelScratch(VertexId universe) : marker(universe) {}

  // W_uv for sinks that Emit; as long as the longest probe so far.
  std::vector<VertexId> intersection;
  DenseBitmap marker;
};

class IteratorModel {
 public:
  virtual ~IteratorModel() = default;

  virtual const char* name() const = 0;

  /// InternalTriangleImpl (Algorithm 6 / 11): emits the internal
  /// triangles contributed by the record of `u`. `internal` holds n_succ
  /// of every vertex in [plan.v_lo, plan.v_hi].
  virtual void InternalTriangles(const SuccessorIndex& internal,
                                 const IterationPlan& plan, VertexId u,
                                 TriangleSink* sink,
                                 ModelScratch* scratch) const = 0;

  /// ExternalCandidateVertexImpl (Algorithm 8 / 12) at segment
  /// granularity: appends to `out` the external candidate vertices that
  /// this loaded segment of an internal record implies. Works per segment
  /// so candidates can be collected while other internal pages are still
  /// in flight.
  virtual void CollectCandidates(const IterationPlan& plan,
                                 const Segment& segment,
                                 std::vector<VertexId>* out) const = 0;

  /// ExternalTriangleImpl (Algorithm 10 / 13) for one loaded external
  /// record: derives the internal requesters V_req from the record's own
  /// adjacency list and emits all external triangles involving it.
  virtual void ExternalTriangles(const SuccessorIndex& internal,
                                 const IterationPlan& plan,
                                 VertexId external_vertex,
                                 const AdjacencyRef& external_adj,
                                 TriangleSink* sink,
                                 ModelScratch* scratch) const = 0;
};

/// EdgeIterator-with-ordering instance (Algorithms 6, 8, 10).
class EdgeIteratorModel : public IteratorModel {
 public:
  const char* name() const override { return "edge-iterator"; }

  void InternalTriangles(const SuccessorIndex& internal,
                         const IterationPlan& plan, VertexId u,
                         TriangleSink* sink,
                         ModelScratch* scratch) const override;

  void CollectCandidates(const IterationPlan& plan, const Segment& segment,
                         std::vector<VertexId>* out) const override;

  void ExternalTriangles(const SuccessorIndex& internal,
                         const IterationPlan& plan, VertexId external_vertex,
                         const AdjacencyRef& external_adj, TriangleSink* sink,
                         ModelScratch* scratch) const override;
};

/// VertexIterator-with-ordering instance (Algorithms 11, 12, 13).
class VertexIteratorModel : public IteratorModel {
 public:
  const char* name() const override { return "vertex-iterator"; }

  void InternalTriangles(const SuccessorIndex& internal,
                         const IterationPlan& plan, VertexId u,
                         TriangleSink* sink,
                         ModelScratch* scratch) const override;

  void CollectCandidates(const IterationPlan& plan, const Segment& segment,
                         std::vector<VertexId>* out) const override;

  void ExternalTriangles(const SuccessorIndex& internal,
                         const IterationPlan& plan, VertexId external_vertex,
                         const AdjacencyRef& external_adj, TriangleSink* sink,
                         ModelScratch* scratch) const override;
};

}  // namespace opt

#endif  // OPT_CORE_ITERATOR_MODEL_H_
