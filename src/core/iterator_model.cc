#include "core/iterator_model.h"

#include <algorithm>
#include <limits>
#include <span>

#include "graph/intersect.h"

namespace opt {

namespace {

/// Mark-and-probe over one successor list: construction sets the list's
/// bits in the scratch marker, Probe intersects any sorted list with it
/// by bit tests, and destruction zeroes exactly the words it set. One
/// loaded list is thus walked twice in all, however many lists it meets,
/// where a pairwise merge walks it once per partner.
class MarkedList {
 public:
  MarkedList(std::span<const VertexId> list, ModelScratch* scratch)
      : list_(list), scratch_(scratch) {
    if (list_.empty()) return;
    DenseBitmap& marker = scratch_->marker;
    if (list_.back() >= marker.universe()) {
      // A scratch built without |V|, or a damaged record whose ids pass
      // |V| (loaded records are not range-checked), grows the marker
      // instead of writing past it. Growing reallocates; the marker is
      // all zero here, so nothing is lost, and doubling bounds the
      // number of growths by log |V|.
      const uint64_t wanted = std::max<uint64_t>(
          uint64_t{list_.back()} + 1, uint64_t{marker.universe()} * 2);
      marker.Reset(static_cast<VertexId>(std::min<uint64_t>(
          wanted, std::numeric_limits<VertexId>::max())));
    }
    marker.SetFrom(list_);
  }
  ~MarkedList() {
    if (!list_.empty()) scratch_->marker.ClearFrom(list_);
  }
  MarkedList(const MarkedList&) = delete;
  MarkedList& operator=(const MarkedList&) = delete;

  /// The marked list ∩ `probe`, sorted, in scratch->intersection. Only
  /// ids in [list.front(), list.back()] can be marked, so the probe is
  /// clamped to that range first.
  const std::vector<VertexId>& Probe(std::span<const VertexId> probe) {
    std::vector<VertexId>& out = scratch_->intersection;
    out.clear();
    if (list_.empty()) return out;
    const VertexId* end = probe.data() + probe.size();
    const VertexId* first = std::lower_bound(probe.data(), end, list_.front());
    const VertexId* last = std::upper_bound(first, end, list_.back());
    if (first != last) {
      IntersectBitmapSparseWith(IntersectKernel::kBitmapScalar,
                                {first, last}, scratch_->marker, &out);
    }
    return out;
  }

 private:
  std::span<const VertexId> list_;
  ModelScratch* scratch_;
};

/// Algorithms 6 and 11 (they find the same sets): for every resident
/// v ∈ n_succ(u), W_uv = n_succ(u) ∩ n_succ(v). Algorithm 11 phrases it
/// as w ∈ n_succ(u), w > v, (v, w) ∈ E_in, which is the same set because
/// n_succ(v) lies above v. n_succ(u) is marked once for all its v.
void InternalPairs(const PageRangeView& internal, const IterationPlan& plan,
                   VertexId u, TriangleSink* sink, ModelScratch* scratch) {
  const auto succ_u = internal.Get(u).succ();
  // Sorted: when the first successor is external, so are all of them.
  if (succ_u.empty() || succ_u.front() > plan.v_hi) return;
  MarkedList marked(succ_u, scratch);
  for (VertexId v : succ_u) {
    if (v > plan.v_hi) break;  // the rest are external pairs
    const auto& ws = marked.Probe(internal.Get(v).succ());
    if (!ws.empty()) sink->Emit(u, v, ws);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// EdgeIterator instance (Algorithms 6, 8, 10).
// ---------------------------------------------------------------------------

void EdgeIteratorModel::InternalTriangles(const PageRangeView& internal,
                                          const IterationPlan& plan,
                                          VertexId u, TriangleSink* sink,
                                          ModelScratch* scratch) const {
  InternalPairs(internal, plan, u, sink, scratch);
}

void EdgeIteratorModel::CollectCandidates(const IterationPlan& plan,
                                          const Segment& segment,
                                          std::vector<VertexId>* out) const {
  // Algorithm 8: v in n_succ(u) with n(v) outside the internal area.
  // Residency is the id-range test v <= v_hi, so candidates are exactly
  // the neighbors beyond v_hi (they are also > u, hence in n_succ(u)).
  const auto& nbrs = segment.neighbors;
  auto it = std::upper_bound(nbrs.begin(), nbrs.end(), plan.v_hi);
  out->insert(out->end(), it, nbrs.end());
}

void EdgeIteratorModel::ExternalTriangles(const PageRangeView& internal,
                                          const IterationPlan& plan,
                                          VertexId external_vertex,
                                          const AdjacencyRef& external_adj,
                                          TriangleSink* sink,
                                          ModelScratch* scratch) const {
  // Algorithm 9 line 5 derives V_req from the loaded record itself:
  // the internal requesters are n_prec(v) ∩ [v_lo, v_hi].
  const auto prec = external_adj.prec();
  auto lo = std::lower_bound(prec.begin(), prec.end(), plan.v_lo);
  auto hi = std::upper_bound(lo, prec.end(), plan.v_hi);
  if (lo == hi) return;
  // Algorithm 10: W_uv = n_succ(u) ∩ n_succ(v) for every requester u,
  // with the loaded n_succ(v) marked once for all of them.
  MarkedList marked(external_adj.succ(), scratch);
  for (auto it = lo; it != hi; ++it) {
    const VertexId u = *it;
    const auto& ws = marked.Probe(internal.Get(u).succ());
    if (!ws.empty()) sink->Emit(u, external_vertex, ws);
  }
}

// ---------------------------------------------------------------------------
// VertexIterator instance (Algorithms 11, 12, 13).
// ---------------------------------------------------------------------------

void VertexIteratorModel::InternalTriangles(const PageRangeView& internal,
                                            const IterationPlan& plan,
                                            VertexId u, TriangleSink* sink,
                                            ModelScratch* scratch) const {
  InternalPairs(internal, plan, u, sink, scratch);
}

void VertexIteratorModel::CollectCandidates(const IterationPlan& plan,
                                            const Segment& segment,
                                            std::vector<VertexId>* out) const {
  // Algorithm 12: for a resident record v, every u ∈ n_prec(v) whose
  // list is not resident (u < v_lo) becomes an external candidate.
  const auto& nbrs = segment.neighbors;
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), plan.v_lo);
  out->insert(out->end(), nbrs.begin(), it);
}

void VertexIteratorModel::ExternalTriangles(const PageRangeView& internal,
                                            const IterationPlan& plan,
                                            VertexId external_vertex,
                                            const AdjacencyRef& external_adj,
                                            TriangleSink* sink,
                                            ModelScratch* scratch) const {
  // The loaded record is the low-id outer vertex u; its requesters are
  // v ∈ n_succ(u) ∩ [v_lo, v_hi] (resident lists).
  const VertexId u = external_vertex;
  const auto succ_u = external_adj.succ();
  auto lo = std::lower_bound(succ_u.begin(), succ_u.end(), plan.v_lo);
  auto hi = std::upper_bound(lo, succ_u.end(), plan.v_hi);
  if (lo == hi) return;
  // Algorithm 13: w ∈ n_succ(u) with id(w) > id(v) and (v, w) ∈ E_in,
  // i.e. n_succ(u) ∩ n_succ(v); the loaded n_succ(u) is marked once.
  MarkedList marked(succ_u, scratch);
  for (auto it = lo; it != hi; ++it) {
    const VertexId v = *it;
    const auto& ws = marked.Probe(internal.Get(v).succ());
    if (!ws.empty()) sink->Emit(u, v, ws);
  }
}

}  // namespace opt
