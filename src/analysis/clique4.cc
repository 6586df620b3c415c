#include "analysis/clique4.h"

#include <atomic>
#include <vector>

#include "graph/intersect.h"
#include "util/thread_pool.h"

namespace opt {

uint64_t Count4Cliques(const CSRGraph& g, uint32_t num_threads) {
  std::atomic<uint64_t> total{0};
  // ParallelFor helpers start with no IntersectScope: carry the caller's.
  const IntersectKernel kernel = ActiveIntersectKernel();
  ParallelFor(0, g.num_vertices(), num_threads, [&](size_t a_index) {
    IntersectScope intersect_scope(kernel);
    const auto a = static_cast<VertexId>(a_index);
    uint64_t local = 0;
    std::vector<VertexId> common;
    const auto succ_a = g.Successors(a);
    for (VertexId b : succ_a) {
      common.clear();
      Intersect(succ_a, g.Successors(b), &common);
      // Every adjacent pair (c, d) inside the common successor set
      // closes a 4-clique; count pairs via per-c intersection with the
      // suffix.
      for (size_t i = 0; i < common.size(); ++i) {
        const auto succ_c = g.Successors(common[i]);
        local += IntersectCount(
            std::span<const VertexId>(common).subspan(i + 1), succ_c);
      }
    }
    total.fetch_add(local, std::memory_order_relaxed);
  });
  return total.load();
}

}  // namespace opt
