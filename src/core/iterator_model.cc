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
///
/// For a counts_only() sink the sets are never built: Probe adds each
/// set's size, and destruction hands the total to AddCount. Other sinks
/// get every non-empty set through Emit. Both paths count the same calls
/// (one per non-empty clamped probe) and elements (clamped probe +
/// marked list), and destruction records them in the intersect counters
/// once per model call.
class MarkedList {
 public:
  MarkedList(std::span<const VertexId> list, TriangleSink* sink,
             ModelScratch* scratch)
      : list_(list),
        sink_(sink),
        scratch_(scratch),
        counts_only_(sink->counts_only()) {
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
    // Adjacency lists are strictly increasing, so no id repeats.
    marker.SetDistinct(list_);
  }
  ~MarkedList() {
    if (list_.empty()) return;
    scratch_->marker.ClearFrom(list_);
    if (calls_ == 0) return;
    RecordIntersectCalls(IntersectKernel::kBitmapScalar, calls_, elements_);
    if (triangles_ > 0) sink_->AddCount(triangles_);
  }
  MarkedList(const MarkedList&) = delete;
  MarkedList& operator=(const MarkedList&) = delete;

  /// Reports W_uv = the marked list ∩ `partner` (sorted). Only ids in
  /// [list.front(), list.back()] can be marked, so `partner` is clamped
  /// to that range first.
  void Probe(VertexId u, VertexId v, std::span<const VertexId> partner) {
    if (list_.empty()) return;
    const VertexId* end = partner.data() + partner.size();
    const VertexId* first =
        std::lower_bound(partner.data(), end, list_.front());
    const VertexId* last = std::upper_bound(first, end, list_.back());
    if (first == last) return;
    ++calls_;
    elements_ += static_cast<uint64_t>(last - first) + list_.size();
    if (counts_only_) {
      triangles_ += CountBitmapSparse({first, last}, scratch_->marker);
      return;
    }
    // A buffer for the longest probe so far: it only grows, so no probe
    // pays for initializing it.
    std::vector<VertexId>& ws = scratch_->intersection;
    const size_t probe = static_cast<size_t>(last - first);
    if (ws.size() < probe) ws.resize(probe);
    const size_t n =
        CollectBitmapSparse({first, last}, scratch_->marker, ws.data());
    if (n > 0) sink_->Emit(u, v, {ws.data(), n});
  }

 private:
  std::span<const VertexId> list_;
  TriangleSink* sink_;
  ModelScratch* scratch_;
  const bool counts_only_;
  // This call's probes, and on the count path its triangles.
  uint64_t calls_ = 0;
  uint64_t elements_ = 0;
  uint64_t triangles_ = 0;
};

/// How many partners ahead of its probe a partner's n_succ is
/// prefetched: far enough that the load overlaps the probes in between,
/// near enough that the line is still cached when its probe comes.
constexpr size_t kPrefetchDistance = 2;

/// Probes `marked` (the list of `x`) against n_succ(p) of every resident
/// partner p in `partners`, prefetching kPrefetchDistance partners ahead.
/// The pair is (x, p) when `x_is_low`, else (p, x).
void ProbePartners(const SuccessorIndex& internal,
                   std::span<const VertexId> partners, VertexId x,
                   bool x_is_low, MarkedList* marked) {
  const size_t count = partners.size();
  for (size_t k = 0; k < count && k < kPrefetchDistance; ++k) {
    internal.Prefetch(partners[k]);
  }
  for (size_t k = 0; k < count; ++k) {
    if (k + kPrefetchDistance < count) {
      internal.Prefetch(partners[k + kPrefetchDistance]);
    }
    const VertexId p = partners[k];
    if (x_is_low) {
      marked->Probe(x, p, internal.Succ(p));
    } else {
      marked->Probe(p, x, internal.Succ(p));
    }
  }
}

/// Algorithms 6 and 11 (they find the same sets): for every resident
/// v ∈ n_succ(u), W_uv = n_succ(u) ∩ n_succ(v). Algorithm 11 phrases it
/// as w ∈ n_succ(u), w > v, (v, w) ∈ E_in, which is the same set because
/// n_succ(v) lies above v. n_succ(u) is marked once for all its v.
void InternalPairs(const SuccessorIndex& internal, const IterationPlan& plan,
                   VertexId u, TriangleSink* sink, ModelScratch* scratch) {
  const auto succ_u = internal.Succ(u);
  // Sorted: the resident successors are a prefix, the rest external.
  const auto resident = std::span<const VertexId>(
      succ_u.begin(),
      std::upper_bound(succ_u.begin(), succ_u.end(), plan.v_hi));
  if (resident.empty()) return;
  MarkedList marked(succ_u, sink, scratch);
  ProbePartners(internal, resident, u, /*x_is_low=*/true, &marked);
}

}  // namespace

// ---------------------------------------------------------------------------
// EdgeIterator instance (Algorithms 6, 8, 10).
// ---------------------------------------------------------------------------

void EdgeIteratorModel::InternalTriangles(const SuccessorIndex& internal,
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

void EdgeIteratorModel::ExternalTriangles(const SuccessorIndex& internal,
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
  MarkedList marked(external_adj.succ(), sink, scratch);
  ProbePartners(internal, {lo, hi}, external_vertex, /*x_is_low=*/false,
                &marked);
}

// ---------------------------------------------------------------------------
// VertexIterator instance (Algorithms 11, 12, 13).
// ---------------------------------------------------------------------------

void VertexIteratorModel::InternalTriangles(const SuccessorIndex& internal,
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

void VertexIteratorModel::ExternalTriangles(const SuccessorIndex& internal,
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
  MarkedList marked(succ_u, sink, scratch);
  ProbePartners(internal, {lo, hi}, u, /*x_is_low=*/true, &marked);
}

}  // namespace opt
