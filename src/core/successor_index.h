// The internal area as the iterator models read it (paper §3.2): n_succ(u)
// for every resident vertex u ∈ [v_lo, v_hi], copied out of the pinned
// internal pages once per iteration and laid back to back in one id
// array, with one 32-bit offset per vertex. A probe then reaches its
// partner's list with two loads from two dense arrays instead of a walk
// through a per-vertex entry into a page frame that also holds n_prec
// and segment headers.
//
// Build validates what it copies, so a damaged page whose CRC was
// recomputed over the damage fails the run with Corruption instead of
// reading as a short list or indexing outside the index.
#ifndef OPT_CORE_SUCCESSOR_INDEX_H_
#define OPT_CORE_SUCCESSOR_INDEX_H_

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr_graph.h"
#include "storage/graph_store.h"
#include "util/status.h"

namespace opt {

class SuccessorIndex {
 public:
  /// Copies n_succ(u) for every u ∈ [plan.v_lo, plan.v_hi] from `pages`,
  /// the page images plan.pid_lo, plan.pid_lo + 1, ... in order. Keeps
  /// the buffers of the previous Build, so a run that builds one index
  /// per iteration allocates only when an area outgrows every earlier
  /// one. Returns Corruption, naming the page and vertex, when a record
  /// of the range is missing or incomplete, when an n_succ is not
  /// strictly increasing above its vertex, when an id is ≥ |V|, or when
  /// the area holds 2^32 or more successor ids (offsets are 32-bit).
  Status Build(const GraphStore& store, const IterationPlan& plan,
               std::span<const char* const> pages);

  /// n_succ(u), sorted. Precondition: u is in the range of the last
  /// successful Build.
  std::span<const VertexId> Succ(VertexId u) const {
    assert(u >= v_lo_ && u - v_lo_ + 1 < offsets_.size());
    const uint32_t* at = offsets_.data() + (u - v_lo_);
    return {ids_.data() + at[0], ids_.data() + at[1]};
  }

  /// Starts loading the head of n_succ(u) into the cache.
  void Prefetch(VertexId u) const {
    __builtin_prefetch(ids_.data() + offsets_[u - v_lo_]);
  }

 private:
  VertexId v_lo_ = 0;
  // offsets_[i] is where n_succ(v_lo + i) starts in ids_;
  // offsets_.back() == ids_.size().
  std::vector<uint32_t> offsets_;
  std::vector<VertexId> ids_;
};

}  // namespace opt

#endif  // OPT_CORE_SUCCESSOR_INDEX_H_
