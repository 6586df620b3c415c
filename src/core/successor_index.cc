#include "core/successor_index.h"

#include <limits>
#include <string>

#include "storage/record_scanner.h"

namespace opt {

Status SuccessorIndex::Build(const GraphStore& store,
                             const IterationPlan& plan,
                             std::span<const char* const> pages) {
  offsets_.clear();
  ids_.clear();
  v_lo_ = plan.v_lo;
  uint32_t pid = plan.pid_lo;
  const auto corrupt = [&pid](VertexId v, const std::string& what) {
    return Status::Corruption("internal page " + std::to_string(pid) +
                              ": vertex " + std::to_string(v) + " " + what);
  };

  // The decoder hands out valid records in ascending vertex order, so
  // `next`, the vertex whose record comes next, must be the one it yields.
  RecordDecoder decoder(store);
  VertexId next = plan.v_lo;
  const auto add = [&](VertexId v, const AdjacencyRef& adj) {
    // The tail of the record before the area, the head of the one after.
    if (v < plan.v_lo || v > plan.v_hi) return Status::OK();
    if (v != next) {
      return corrupt(next, "has no record (found vertex " +
                               std::to_string(v) + ")");
    }
    const auto succ = adj.succ();
    if (ids_.size() + succ.size() > std::numeric_limits<uint32_t>::max()) {
      return corrupt(v, "takes the area past 2^32 - 1 successor ids");
    }
    offsets_.push_back(static_cast<uint32_t>(ids_.size()));
    ids_.insert(ids_.end(), succ.begin(), succ.end());
    ++next;
    return Status::OK();
  };
  for (const char* data : pages) {
    OPT_RETURN_IF_ERROR(decoder.Feed(data, pid, add));
    ++pid;
  }
  if (next <= plan.v_hi) {
    if (!pages.empty()) --pid;  // name the area's last page
    return corrupt(next, "has no complete record in the internal area");
  }
  offsets_.push_back(static_cast<uint32_t>(ids_.size()));
  return Status::OK();
}

}  // namespace opt
