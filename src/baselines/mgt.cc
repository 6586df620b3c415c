#include "baselines/mgt.h"

#include <memory>
#include <vector>

#include "util/aligned_buffer.h"

#include "core/iterator_model.h"
#include "core/successor_index.h"
#include "storage/record_scanner.h"
#include "util/stopwatch.h"

namespace opt {

Status RunMgt(GraphStore* store, TriangleSink* sink,
              const MgtOptions& options, MgtStats* stats) {
  if (options.memory_pages == 0) {
    return Status::InvalidArgument("memory_pages must be positive");
  }
  if (options.memory_pages < store->MaxRecordPages()) {
    return Status::ResourceExhausted(
        "memory buffer smaller than the largest adjacency list");
  }
  Stopwatch watch;
  MgtStats local;
  const VertexId n = store->num_vertices();
  if (n == 0) {
    if (stats != nullptr) *stats = local;
    return sink->Finish();
  }

  const uint32_t page_size = store->page_size();
  VertexIteratorModel model;
  SuccessorIndex internal;  // one buffer-load's n_succ, reused per load

  VertexId v_start = 0;
  while (v_start < n) {
    OPT_ASSIGN_OR_RETURN(
        const IterationPlan plan,
        store->PlanIteration(v_start, options.memory_pages));

    // Pin one buffer-load of adjacency lists (synchronous reads).
    const uint32_t pages = plan.num_pages();
    AlignedBuffer arena(static_cast<size_t>(pages) * page_size);
    std::vector<const char*> page_data(pages);
    for (uint32_t i = 0; i < pages; ++i) {
      char* dst = arena.data() + static_cast<size_t>(i) * page_size;
      OPT_RETURN_IF_ERROR(store->file()->ReadPage(plan.pid_lo + i, dst));
      ++local.pages_read;
      if (options.validate_pages) {
        OPT_RETURN_IF_ERROR(
            PageView(dst, page_size).Validate(plan.pid_lo + i));
      }
      page_data[i] = dst;
    }
    OPT_RETURN_IF_ERROR(internal.Build(*store, plan, page_data));

    // Re-scan the entire graph; every record is an external candidate.
    ModelScratch scratch(store->num_vertices());
    OPT_RETURN_IF_ERROR(ScanRecords(
        *store, 0, store->num_pages() - 1,
        [&](VertexId u, std::span<const VertexId> neighbors) {
          AdjacencyRef adj;
          adj.all = neighbors;
          adj.succ_begin = static_cast<uint32_t>(
              std::upper_bound(neighbors.begin(), neighbors.end(), u) -
              neighbors.begin());
          model.ExternalTriangles(internal, plan, u, adj, sink, &scratch);
        },
        &local.pages_read, options.validate_pages));

    ++local.iterations;
    v_start = plan.v_hi + 1;
  }
  OPT_RETURN_IF_ERROR(sink->Finish());
  local.elapsed_seconds = watch.ElapsedSeconds();
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

}  // namespace opt
