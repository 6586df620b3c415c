#include "baselines/cc.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "baselines/shrink_loop.h"
#include "graph/builder.h"
#include "graph/reorder.h"
#include "storage/record_scanner.h"
#include "util/stopwatch.h"

namespace opt {

namespace {

/// Translates triangles from a relabeled id space back to the original
/// one, restoring the canonical u < v < w orientation.
class RemapSink : public TriangleSink {
 public:
  RemapSink(TriangleSink* base, const std::vector<VertexId>* new_to_old)
      : base_(base), new_to_old_(new_to_old) {}

  void Emit(VertexId u, VertexId v, std::span<const VertexId> ws) override {
    for (VertexId w : ws) {
      VertexId t[3] = {(*new_to_old_)[u], (*new_to_old_)[v],
                       (*new_to_old_)[w]};
      std::sort(t, t + 3);
      const VertexId tail[1] = {t[2]};
      base_->Emit(t[0], t[1], tail);
    }
  }

  Status Finish() override { return base_->Finish(); }

 private:
  TriangleSink* base_;
  const std::vector<VertexId>* new_to_old_;
};

}  // namespace

Status RunChuCheng(GraphStore* store, Env* env, TriangleSink* sink,
                   const CcOptions& options, CcStats* stats) {
  Stopwatch watch;
  internal::ShrinkLoopOptions loop_options;
  loop_options.memory_pages = options.memory_pages;
  loop_options.num_threads = 1;
  loop_options.double_scan = false;
  loop_options.temp_dir = options.temp_dir;
  loop_options.temp_prefix = options.dominating_set_order ? "ccds" : "ccseq";
  loop_options.validate_pages = options.validate_pages;

  internal::ShrinkLoopStats loop_stats;
  Status status;
  if (!options.dominating_set_order) {
    status = internal::RunShrinkLoop(store, env, sink, loop_options,
                                     &loop_stats);
  } else {
    // CC-DS: relabel by descending degree so hub vertices are batched
    // (and removed) first; emit in original ids via RemapSink.
    const VertexId n = store->num_vertices();
    std::vector<uint64_t> offsets(n + 1, 0);
    std::vector<VertexId> adjacency;
    adjacency.reserve(store->num_directed_edges());
    OPT_RETURN_IF_ERROR(ScanRecords(
        *store, 0, store->num_pages() - 1,
        [&](VertexId v, const AdjacencyRef& adj) {
          offsets[v + 1] = adj.all.size();
          adjacency.insert(adjacency.end(), adj.all.begin(), adj.all.end());
        },
        &loop_stats.pages_read, options.validate_pages));
    for (VertexId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
    CSRGraph original(std::move(offsets), std::move(adjacency));

    std::vector<VertexId> by_degree(n);
    std::iota(by_degree.begin(), by_degree.end(), 0);
    std::stable_sort(by_degree.begin(), by_degree.end(),
                     [&](VertexId a, VertexId b) {
                       return original.degree(a) > original.degree(b);
                     });
    std::vector<VertexId> old_to_new(n);
    for (VertexId new_id = 0; new_id < n; ++new_id) {
      old_to_new[by_degree[new_id]] = new_id;
    }
    ReorderResult reordered = ApplyOrder(original, old_to_new);

    const std::string relabeled_path = options.temp_dir + "/ccds_input";
    GraphStoreOptions gopts;
    gopts.page_size = store->page_size();
    OPT_RETURN_IF_ERROR(
        GraphStore::Create(reordered.graph, env, relabeled_path, gopts));
    OPT_ASSIGN_OR_RETURN(auto relabeled_store,
                         GraphStore::Open(env, relabeled_path));
    loop_stats.pages_written += relabeled_store->num_pages();

    RemapSink remap(sink, &reordered.new_to_old);
    status = internal::RunShrinkLoop(relabeled_store.get(), env, &remap,
                                     loop_options, &loop_stats);
    (void)env->DeleteFile(GraphStore::PagesPath(relabeled_path));
    (void)env->DeleteFile(GraphStore::MetaPath(relabeled_path));
  }
  if (stats != nullptr) {
    stats->iterations = loop_stats.iterations;
    stats->pages_read = loop_stats.pages_read;
    stats->pages_written = loop_stats.pages_written;
    stats->elapsed_seconds = watch.ElapsedSeconds();
  }
  return status;
}

}  // namespace opt
