#include "storage/record_scanner.h"

#include <algorithm>
#include <functional>

#include "util/aligned_buffer.h"

namespace opt {

Status RecordDecoder::Corrupt(uint32_t pid, VertexId v,
                              const std::string& what) const {
  return Status::Corruption("page " + std::to_string(pid) + ": vertex " +
                            std::to_string(v) + " " + what);
}

bool RecordDecoder::Wanted(VertexId v) {
  if (!filter_) return true;
  while (!wanted_.empty() && wanted_.front() < v) {
    wanted_ = wanted_.subspan(1);
  }
  return !wanted_.empty() && wanted_.front() == v;
}

Status RecordDecoder::Take(const Segment& seg, uint32_t pid,
                           AdjacencyRef* adj, bool* complete) {
  const uint32_t count = static_cast<uint32_t>(seg.neighbors.size());
  if (!open_) {
    if (!seg.IsFirstSegment()) {
      if (!started_) return Status::OK();
      return Corrupt(pid, seg.vertex,
                     "has a segment at offset " + std::to_string(seg.offset) +
                         " that continues no record");
    }
    if (seg.vertex >= num_vertices_) {
      return Corrupt(pid, seg.vertex,
                     "has a record but the store has " +
                         std::to_string(num_vertices_) + " vertices");
    }
    if (started_ && seg.vertex <= vertex_) {
      return Corrupt(pid, seg.vertex,
                     "has a record after vertex " + std::to_string(vertex_));
    }
    started_ = true;
    vertex_ = seg.vertex;
    degree_ = seg.total_degree;
    consumed_ = 0;
    skip_ = !Wanted(vertex_);
    if (!skip_ && count == degree_) {  // the common case: no copy
      *complete = true;
      return Check(pid, seg.neighbors, adj);
    }
    pending_.clear();
  } else if (seg.vertex != vertex_ || seg.offset != consumed_) {
    return Corrupt(pid, vertex_,
                   "has an incomplete record (" + std::to_string(consumed_) +
                       " of " + std::to_string(degree_) + " ids)");
  }
  if (count > degree_ - consumed_) {
    return Corrupt(pid, vertex_,
                   "has more ids than its degree " + std::to_string(degree_));
  }
  consumed_ += count;
  open_ = consumed_ < degree_;
  if (skip_) return Status::OK();
  pending_.insert(pending_.end(), seg.neighbors.begin(), seg.neighbors.end());
  if (open_) return Status::OK();
  *complete = true;
  return Check(pid, pending_, adj);
}

Status RecordDecoder::Check(uint32_t pid, std::span<const VertexId> all,
                            AdjacencyRef* adj) const {
  const VertexId v = vertex_;
  // Branch-free with an integer accumulator, so the common (valid) case
  // vectorizes; GCC does not vectorize a bool `&=` reduction.
  uint32_t unordered = 0;
  for (size_t i = 1; i < all.size(); ++i) unordered |= all[i] <= all[i - 1];
  if (unordered != 0) {
    const auto at = std::adjacent_find(all.begin(), all.end(),
                                       std::greater_equal<VertexId>());
    return Corrupt(pid, v,
                   std::string("lists ") +
                       (at[0] > v ? "successor " : "predecessor ") +
                       std::to_string(at[1]) + " after " +
                       std::to_string(at[0]));
  }
  // Sorted, so the last id is the largest.
  if (!all.empty() && all.back() >= num_vertices_) {
    return Corrupt(pid, v,
                   "lists neighbour " + std::to_string(all.back()) +
                       " but the store has " +
                       std::to_string(num_vertices_) + " vertices");
  }
  const auto succ = std::upper_bound(all.begin(), all.end(), v);
  if (succ != all.begin() && succ[-1] == v) {
    return Corrupt(pid, v, "lists itself as a neighbour");
  }
  adj->all = all;
  adj->succ_begin = static_cast<uint32_t>(succ - all.begin());
  return Status::OK();
}

Status ScanRecords(
    const GraphStore& store, uint32_t first_pid, uint32_t last_pid,
    const std::function<void(VertexId, const AdjacencyRef&)>& fn,
    uint64_t* pages_read, bool validate_pages) {
  if (store.num_pages() == 0) return Status::OK();
  if (last_pid >= store.num_pages()) {
    return Status::OutOfRange("scan range beyond end of store");
  }
  AlignedBuffer buffer(store.page_size());
  RecordDecoder decoder(store);
  for (uint32_t pid = first_pid; pid <= last_pid; ++pid) {
    OPT_RETURN_IF_ERROR(store.file()->ReadPage(pid, buffer.data()));
    if (pages_read != nullptr) ++*pages_read;
    if (validate_pages) {
      OPT_RETURN_IF_ERROR(
          PageView(buffer.data(), store.page_size()).Validate(pid));
    }
    OPT_RETURN_IF_ERROR(decoder.Feed(
        buffer.data(), pid, [&fn](VertexId v, const AdjacencyRef& adj) {
          fn(v, adj);
          return Status::OK();
        }));
  }
  return Status::OK();
}

Status ReadAdjacency(const GraphStore& store, VertexId v,
                     std::vector<VertexId>* out, uint64_t* pages_read) {
  if (v >= store.num_vertices()) {
    return Status::OutOfRange("vertex " + std::to_string(v) +
                              " beyond end of store");
  }
  out->clear();
  bool found = false;
  OPT_RETURN_IF_ERROR(ScanRecords(
      store, store.FirstPageOfVertex(v), store.LastPageOfVertex(v),
      [&](VertexId vertex, const AdjacencyRef& adj) {
        if (vertex != v) return;
        out->assign(adj.all.begin(), adj.all.end());
        found = true;
      },
      pages_read));
  if (!found) {
    return Status::Corruption("record for vertex " + std::to_string(v) +
                              " missing from its page run");
  }
  return Status::OK();
}

}  // namespace opt
