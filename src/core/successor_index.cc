#include "core/successor_index.h"

#include <limits>
#include <string>

#include "storage/page.h"

namespace opt {

Status SuccessorIndex::Build(const GraphStore& store,
                             const IterationPlan& plan,
                             std::span<const char* const> pages) {
  offsets_.clear();
  ids_.clear();
  v_lo_ = plan.v_lo;
  const VertexId n = store.num_vertices();
  const uint32_t page_size = store.page_size();
  uint32_t pid = plan.pid_lo;
  const auto corrupt = [&pid](VertexId v, const std::string& what) {
    return Status::Corruption("internal page " + std::to_string(pid) +
                              ": vertex " + std::to_string(v) + " " + what);
  };

  // Records arrive in ascending vertex order: `next` is the vertex whose
  // record comes next, `open` whether its first segment has been read.
  VertexId next = plan.v_lo;
  bool open = false;
  uint64_t consumed = 0;  // ids of the open record read so far
  uint64_t degree = 0;    // its total degree, from the first segment
  VertexId last = 0;      // its last successor copied (or itself)
  for (const char* data : pages) {
    PageView page(data, page_size);
    const uint32_t slots = page.num_slots();
    for (uint32_t s = 0; s < slots; ++s) {
      const Segment seg = page.GetSegment(s);
      // The tail of the record before the area, the head of the one after.
      if (!open && seg.vertex < plan.v_lo && next == plan.v_lo) continue;
      if (seg.vertex > plan.v_hi && next > plan.v_hi) continue;
      if (open) {
        if (seg.vertex != next || seg.offset != consumed) {
          return corrupt(next, "has an incomplete record (" +
                                   std::to_string(consumed) + " of " +
                                   std::to_string(degree) + " ids)");
        }
      } else if (seg.vertex != next || !seg.IsFirstSegment()) {
        return corrupt(next, "has no record (found a segment of vertex " +
                                 std::to_string(seg.vertex) + ")");
      } else {
        open = true;
        consumed = 0;
        degree = seg.total_degree;
        last = next;
        offsets_.push_back(static_cast<uint32_t>(ids_.size()));
      }
      const VertexId* begin = seg.neighbors.data();
      const VertexId* end = begin + seg.neighbors.size();
      consumed += seg.neighbors.size();
      if (consumed > degree) {
        return corrupt(next, "has more ids than its degree " +
                                 std::to_string(degree));
      }
      // n_prec(next) leads the record; the successors start at the first
      // id above the vertex, and every id after it must keep rising.
      if (last == next) {
        while (begin != end && *begin <= next) ++begin;
      }
      const size_t from = ids_.size();
      if (from + static_cast<size_t>(end - begin) >
          std::numeric_limits<uint32_t>::max()) {
        return corrupt(next, "takes the area past 2^32 - 1 successor ids");
      }
      ids_.insert(ids_.end(), begin, end);
      for (size_t i = from; i < ids_.size(); ++i) {
        const VertexId w = ids_[i];
        if (w <= last) {
          return corrupt(next, "lists successor " + std::to_string(w) +
                                   " after " + std::to_string(last));
        }
        if (w >= n) {
          return corrupt(next, "lists neighbour " + std::to_string(w) +
                                   " but the store has " + std::to_string(n) +
                                   " vertices");
        }
        last = w;
      }
      if (consumed == degree) {
        open = false;
        ++next;
      }
    }
    ++pid;
  }
  if (next <= plan.v_hi) {
    if (!pages.empty()) --pid;  // name the area's last page
    return corrupt(next, open ? "has an incomplete record at the end of "
                                "the internal area"
                              : "has no record in the internal area");
  }
  offsets_.push_back(static_cast<uint32_t>(ids_.size()));
  return Status::OK();
}

}  // namespace opt
