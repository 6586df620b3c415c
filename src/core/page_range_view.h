// Assembles the adjacency lists stored on one loaded external chunk (a
// page, or the page run of a spanning record) into O(1)-addressable
// per-vertex views of the full n(v), so the iterator models can derive
// the internal requesters V_req from n_prec(v). Because records are laid
// out in ascending vertex-id order, a page run covers a contiguous vertex
// range; only *fully* covered records (all segments present) are
// addressable. The internal area is read through SuccessorIndex instead.
#ifndef OPT_CORE_PAGE_RANGE_VIEW_H_
#define OPT_CORE_PAGE_RANGE_VIEW_H_

#include <cstdint>
#include <span>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/graph_store.h"
#include "storage/page.h"
#include "util/status.h"

namespace opt {

/// A resident adjacency list: full sorted n(v) plus the boundary between
/// n_prec(v) and n_succ(v).
struct AdjacencyRef {
  std::span<const VertexId> all;
  uint32_t succ_begin = 0;  // index of the first neighbor with id > v

  std::span<const VertexId> succ() const { return all.subspan(succ_begin); }
  std::span<const VertexId> prec() const {
    return all.subspan(0, succ_begin);
  }
};

class PageRangeView {
 public:
  PageRangeView() = default;

  /// Parses the consecutive page images `page_data` (already read and,
  /// if desired, CRC-validated by the caller).
  Status Build(const GraphStore& store,
               std::span<const char* const> page_data);

  /// True if v's record is entirely within this view.
  bool HasFull(VertexId v) const {
    if (v < base_vertex_ || v >= base_vertex_ + entries_.size()) return false;
    return entries_[v - base_vertex_].full;
  }

  /// Adjacency of a fully covered vertex. Precondition: HasFull(v).
  AdjacencyRef Get(VertexId v) const {
    const Entry& e = entries_[v - base_vertex_];
    return {std::span<const VertexId>(e.ptr, e.len), e.succ_begin};
  }

 private:
  struct Entry {
    const VertexId* ptr = nullptr;
    uint32_t len = 0;
    uint32_t succ_begin = 0;
    bool full = false;
  };

  VertexId base_vertex_ = 0;
  std::vector<Entry> entries_;
  // Backing storage for adjacency lists that span pages.
  std::vector<std::vector<VertexId>> scratch_;
};

}  // namespace opt

#endif  // OPT_CORE_PAGE_RANGE_VIEW_H_
