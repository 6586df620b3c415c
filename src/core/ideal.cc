#include "core/ideal.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "util/aligned_buffer.h"

#include "core/page_range_view.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace opt {

Status RunIdeal(GraphStore* store, const IteratorModel& model,
                TriangleSink* sink, uint32_t num_threads,
                IdealStats* stats) {
  Stopwatch total_watch;
  const uint32_t pages = store->num_pages();
  const uint32_t page_size = store->page_size();
  if (store->num_vertices() == 0) {
    if (stats != nullptr) *stats = IdealStats();
    return sink->Finish();
  }

  Stopwatch load_watch;
  AlignedBuffer buffer(static_cast<size_t>(pages) * page_size);
  std::vector<const char*> page_data(pages);
  for (uint32_t pid = 0; pid < pages; ++pid) {
    char* dst = buffer.data() + static_cast<size_t>(pid) * page_size;
    OPT_RETURN_IF_ERROR(store->file()->ReadPage(pid, dst));
    OPT_RETURN_IF_ERROR(PageView(dst, page_size).Validate(pid));
    page_data[pid] = dst;
  }
  PageRangeView view;
  OPT_RETURN_IF_ERROR(view.Build(*store, 0, page_data));
  const double load_seconds = load_watch.ElapsedSeconds();

  Stopwatch cpu_watch;
  IterationPlan plan;
  plan.v_lo = 0;
  plan.v_hi = store->num_vertices() - 1;
  plan.pid_lo = 0;
  plan.pid_hi = pages - 1;

  // One scratch (a |V|-bit marker) per worker; workers claim pages
  // dynamically, like Algorithm 5's page-parallel loop.
  const uint32_t workers = std::clamp(num_threads, 1u, pages);
  std::atomic<uint32_t> next_page{0};
  ParallelFor(0, workers, workers, [&](size_t) {
    ModelScratch scratch(store->num_vertices());
    for (uint32_t pid; (pid = next_page.fetch_add(1)) < pages;) {
      PageView page(page_data[pid], page_size);
      const uint32_t slots = page.num_slots();
      for (uint32_t s = 0; s < slots; ++s) {
        const Segment seg = page.GetSegment(s);
        if (!seg.IsFirstSegment()) continue;
        model.InternalTriangles(view, plan, seg.vertex, sink, &scratch);
      }
    }
  });
  const double cpu_seconds = cpu_watch.ElapsedSeconds();

  OPT_RETURN_IF_ERROR(sink->Finish());
  if (stats != nullptr) {
    stats->load_seconds = load_seconds;
    stats->cpu_seconds = cpu_seconds;
    stats->elapsed_seconds = total_watch.ElapsedSeconds();
  }
  return Status::OK();
}

}  // namespace opt
