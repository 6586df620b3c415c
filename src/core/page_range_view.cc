#include "core/page_range_view.h"

#include <algorithm>
#include <cassert>

namespace opt {

Status PageRangeView::Build(const GraphStore& store,
                            std::span<const char* const> page_data) {
  entries_.clear();
  scratch_.clear();
  if (page_data.empty()) return Status::OK();

  const uint32_t page_size = store.page_size();

  // Determine the vertex extent of the run.
  base_vertex_ = kInvalidVertex;
  VertexId max_vertex = 0;
  for (size_t i = 0; i < page_data.size(); ++i) {
    PageView page(page_data[i], page_size);
    const uint32_t slots = page.num_slots();
    if (slots == 0) continue;
    const VertexId first = page.GetSegment(0).vertex;
    const VertexId last = page.GetSegment(slots - 1).vertex;
    if (base_vertex_ == kInvalidVertex) base_vertex_ = first;
    base_vertex_ = std::min(base_vertex_, first);
    max_vertex = std::max(max_vertex, last);
  }
  if (base_vertex_ == kInvalidVertex) return Status::OK();  // empty pages
  entries_.resize(max_vertex - base_vertex_ + 1);

  // In-progress multi-segment assembly (records appear in page order, so
  // a spanning record's segments arrive consecutively).
  VertexId pending_vertex = kInvalidVertex;
  std::vector<VertexId> pending;
  uint32_t pending_expected = 0;

  auto finalize = [&](VertexId v, const VertexId* ptr, uint32_t len) {
    Entry& e = entries_[v - base_vertex_];
    e.ptr = ptr;
    e.len = len;
    e.full = true;
    e.succ_begin = static_cast<uint32_t>(
        std::upper_bound(ptr, ptr + len, v) - ptr);
  };

  for (size_t i = 0; i < page_data.size(); ++i) {
    PageView page(page_data[i], page_size);
    const uint32_t slots = page.num_slots();
    for (uint32_t s = 0; s < slots; ++s) {
      const Segment seg = page.GetSegment(s);
      if (seg.vertex >= static_cast<uint64_t>(base_vertex_) +
                            entries_.size() ||
          seg.vertex < base_vertex_) {
        return Status::Corruption("segment vertex out of run extent");
      }
      if (seg.IsFirstSegment() && seg.IsLastSegment()) {
        // Common case: single-segment record, zero copy.
        finalize(seg.vertex, seg.neighbors.data(),
                 static_cast<uint32_t>(seg.neighbors.size()));
        pending_vertex = kInvalidVertex;
        continue;
      }
      if (seg.IsFirstSegment()) {
        pending_vertex = seg.vertex;
        pending.assign(seg.neighbors.begin(), seg.neighbors.end());
        pending_expected = seg.total_degree;
        continue;
      }
      // Continuation segment.
      if (seg.vertex != pending_vertex ||
          seg.offset != pending.size()) {
        // The run does not contain the record's earlier segments (view
        // starts mid-record) — the record is not fully covered; skip.
        pending_vertex = kInvalidVertex;
        pending.clear();
        continue;
      }
      pending.insert(pending.end(), seg.neighbors.begin(),
                     seg.neighbors.end());
      if (seg.IsLastSegment()) {
        if (pending.size() != pending_expected) {
          return Status::Corruption("segment chain length mismatch");
        }
        scratch_.emplace_back(std::move(pending));
        pending.clear();
        const auto& stored = scratch_.back();
        finalize(pending_vertex, stored.data(),
                 static_cast<uint32_t>(stored.size()));
        pending_vertex = kInvalidVertex;
      }
    }
  }
  return Status::OK();
}

}  // namespace opt
