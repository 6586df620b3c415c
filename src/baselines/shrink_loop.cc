#include "baselines/shrink_loop.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "core/iterator_model.h"
#include "core/successor_index.h"
#include "storage/record_scanner.h"
#include "util/aligned_buffer.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace opt {
namespace internal {

namespace {

/// Streams `store` and rebuilds the remainder graph containing only
/// vertices > v_hi and edges among them.
Status RewriteRemainder(const GraphStore& store, Env* env,
                        const std::string& path, VertexId v_hi,
                        uint64_t* pages_read, uint64_t* pages_written,
                        bool validate, bool* empty) {
  const VertexId n = store.num_vertices();
  std::vector<uint64_t> offsets(n + 1, 0);
  std::vector<VertexId> adjacency;
  uint64_t kept = 0;
  OPT_RETURN_IF_ERROR(ScanRecords(
      store, 0, store.num_pages() - 1,
      [&](VertexId v, std::span<const VertexId> neighbors) {
        if (v <= v_hi) return;
        auto it = std::upper_bound(neighbors.begin(), neighbors.end(), v_hi);
        const auto count = static_cast<uint64_t>(neighbors.end() - it);
        offsets[v + 1] = count;
        adjacency.insert(adjacency.end(), it, neighbors.end());
        kept += count;
      },
      pages_read, validate));
  for (VertexId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  *empty = (kept == 0);
  CSRGraph remainder(std::move(offsets), std::move(adjacency));
  GraphStoreOptions gopts;
  gopts.page_size = store.page_size();
  OPT_RETURN_IF_ERROR(GraphStore::Create(remainder, env, path, gopts));
  // Account the write volume.
  OPT_ASSIGN_OR_RETURN(auto reopened, GraphStore::Open(env, path));
  *pages_written += reopened->num_pages();
  return Status::OK();
}

}  // namespace

Status RunShrinkLoop(GraphStore* input, Env* env, TriangleSink* sink,
                     const ShrinkLoopOptions& options,
                     ShrinkLoopStats* stats) {
  if (options.memory_pages == 0) {
    return Status::InvalidArgument("memory_pages must be positive");
  }
  if (options.memory_pages < input->MaxRecordPages()) {
    return Status::ResourceExhausted(
        "memory buffer smaller than the largest adjacency list");
  }
  Stopwatch total_watch;
  ShrinkLoopStats local;

  const VertexId n = input->num_vertices();
  if (n == 0) {
    if (stats != nullptr) *stats = local;
    return sink->Finish();
  }
  const uint32_t page_size = input->page_size();
  EdgeIteratorModel model;
  SuccessorIndex internal;  // the batch's n_succ, reused per batch

  // Working-graph double buffering.
  const std::string work_a =
      options.temp_dir + "/" + options.temp_prefix + "_a";
  const std::string work_b =
      options.temp_dir + "/" + options.temp_prefix + "_b";
  GraphStore* current = input;
  std::unique_ptr<GraphStore> owned;
  bool use_a = true;

  VertexId v_start = 0;
  while (v_start < n) {
    OPT_ASSIGN_OR_RETURN(
        const IterationPlan plan,
        current->PlanIteration(v_start, options.memory_pages));

    // Load the batch (full adjacency lists of [v_lo, v_hi]).
    const uint32_t pages = plan.num_pages();
    AlignedBuffer arena(static_cast<size_t>(pages) * page_size);
    std::vector<const char*> page_data(pages);
    for (uint32_t i = 0; i < pages; ++i) {
      char* dst = arena.data() + static_cast<size_t>(i) * page_size;
      OPT_RETURN_IF_ERROR(
          current->file()->ReadPage(plan.pid_lo + i, dst));
      ++local.pages_read;
      if (options.validate_pages) {
        OPT_RETURN_IF_ERROR(
            PageView(dst, page_size).Validate(plan.pid_lo + i));
      }
      page_data[i] = dst;
    }
    OPT_RETURN_IF_ERROR(internal.Build(*current, plan, page_data));

    // (i) Triangles whose two lowest vertices are both in the batch —
    // parallelizable (GraphChi-Tri parallelizes exactly this portion).
    Stopwatch parallel_watch;
    // One scratch (a |V|-bit marker) per worker; workers claim vertices
    // dynamically.
    const uint32_t workers = std::max(1u, options.num_threads);
    std::atomic<uint64_t> next_vertex{plan.v_lo};
    ParallelFor(0, workers, workers, [&](size_t) {
      ModelScratch scratch(current->num_vertices());
      for (uint64_t u; (u = next_vertex.fetch_add(1)) <= plan.v_hi;) {
        model.InternalTriangles(internal, plan, static_cast<VertexId>(u),
                                sink, &scratch);
      }
    });
    local.parallel_seconds += parallel_watch.ElapsedSeconds();

    // (ii) Stream the remainder: triangles with min vertex in the batch
    // and middle vertex outside. GraphChi's enforced sequential order
    // keeps this portion serial.
    Stopwatch serial_watch;
    if (plan.pid_hi < current->num_pages() - 1 ||
        plan.v_hi < current->num_vertices() - 1) {
      ModelScratch scratch(current->num_vertices());
      OPT_RETURN_IF_ERROR(ScanRecords(
          *current, plan.pid_hi, current->num_pages() - 1,
          [&](VertexId x, std::span<const VertexId> neighbors) {
            if (x <= plan.v_hi) return;
            AdjacencyRef adj;
            adj.all = neighbors;
            adj.succ_begin = static_cast<uint32_t>(
                std::upper_bound(neighbors.begin(), neighbors.end(), x) -
                neighbors.begin());
            model.ExternalTriangles(internal, plan, x, adj, sink, &scratch);
          },
          &local.pages_read, options.validate_pages));
    }

    // GraphChi's odd/even load-update-store alternation: one extra full
    // scan of the working graph per iteration (I/O cost only).
    if (options.double_scan) {
      AlignedBuffer scratch_page(page_size);
      for (uint32_t pid = 0; pid < current->num_pages(); ++pid) {
        OPT_RETURN_IF_ERROR(
            current->file()->ReadPage(pid, scratch_page.data()));
        ++local.pages_read;
      }
    }

    // (iii) Remove the batch and rewrite the shrunken remainder.
    const bool last_batch = plan.v_hi >= n - 1;
    if (!last_batch) {
      const std::string& next_path = use_a ? work_a : work_b;
      bool empty = false;
      OPT_RETURN_IF_ERROR(RewriteRemainder(
          *current, env, next_path, plan.v_hi, &local.pages_read,
          &local.pages_written, options.validate_pages, &empty));
      OPT_ASSIGN_OR_RETURN(owned, GraphStore::Open(env, next_path));
      current = owned.get();
      use_a = !use_a;
      if (empty) {
        local.serial_seconds += serial_watch.ElapsedSeconds();
        ++local.iterations;
        break;  // "until no edges remain"
      }
    }
    local.serial_seconds += serial_watch.ElapsedSeconds();
    ++local.iterations;
    v_start = plan.v_hi + 1;
  }

  // Clean up temp files.
  for (const std::string& base : {work_a, work_b}) {
    (void)env->DeleteFile(GraphStore::PagesPath(base));
    (void)env->DeleteFile(GraphStore::MetaPath(base));
  }
  OPT_RETURN_IF_ERROR(sink->Finish());
  local.elapsed_seconds = total_watch.ElapsedSeconds();
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

}  // namespace internal
}  // namespace opt
