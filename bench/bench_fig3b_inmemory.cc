// Figure 3b: relative elapsed time of the in-memory methods
// (VertexIterator≻, EdgeIterator≻, AYZ [2]) versus OPT_serial at a 15%
// buffer, all normalized to ideal (= EdgeIterator≻ + one graph scan).
// Paper shape: EI fastest; VI ~20% slower; AYZ slowest despite its
// better asymptotics; OPT_serial within a few % of ideal.
#include "bench_common.h"

#include "baselines/ayz.h"
#include "baselines/inmemory.h"
#include "core/ideal.h"
#include "core/iterator_model.h"
#include "core/opt_runner.h"
#include "core/triangle_sink.h"
#include "util/stopwatch.h"

using namespace opt;

int main(int argc, char** argv) {
  auto ctx = bench::MakeContext(argc, argv);
  IntersectScope kernel_scope(ctx.kernel.value_or(IntersectKernel::kAuto));
  bench::Banner("Figure 3b",
                "Relative elapsed time of in-memory methods and "
                "OPT_serial (1.0 = ideal; in-memory methods include the "
                "graph load time)");

  TablePrinter table({"dataset", "EdgeIter (rel)", "VertexIter (rel)",
                      "AYZ (rel)", "OPT_serial (rel)"});
  auto specs = PaperDatasets(ctx.scale_shift);
  for (size_t d = 0; d < 4; ++d) {
    CSRGraph graph;
    auto store = MaterializeDataset(specs[d], ctx.get_env(), ctx.work_dir,
                                    bench::kPageSize, &graph);
    if (!store.ok()) {
      std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
      return 1;
    }
    EdgeIteratorModel model;
    IdealStats ideal;
    CountingSink ideal_sink;
    (void)RunIdeal(store->get(), model, &ideal_sink, 1, &ideal);
    const double base = ideal.elapsed_seconds;

    // In-memory methods pay the same one-scan load cost as ideal.
    const double load = ideal.load_seconds;
    double ei_s, vi_s, ayz_s;
    IntersectCounters ei_delta;
    {
      CountingSink sink;
      const IntersectCounters before = SnapshotIntersectCounters();
      Stopwatch w;
      EdgeIteratorInMemory(graph, &sink);
      ei_s = load + w.ElapsedSeconds();
      ei_delta = IntersectCounters::Delta(SnapshotIntersectCounters(), before);
    }
    {
      CountingSink sink;
      Stopwatch w;
      VertexIteratorInMemory(graph, &sink);
      vi_s = load + w.ElapsedSeconds();
    }
    {
      Stopwatch w;
      const uint64_t count = AyzTriangleCount(graph);
      ayz_s = load + w.ElapsedSeconds();
      if (count != ideal_sink.count()) {
        std::fprintf(stderr, "AYZ count mismatch\n");
        return 1;
      }
    }
    double opt_s;
    OptRunStats opt_stats;
    {
      OptOptions options;
      const uint32_t buffer = PagesForBufferPercent(**store, 15.0);
      options.m_in = std::max(buffer / 2, (*store)->MaxRecordPages());
      options.m_ex = std::max(1u, buffer / 2);
      options.macro_overlap = false;
      options.thread_morphing = false;
      ctx.Apply(&options);
      OptRunner runner(store->get(), &model, options);
      CountingSink sink;
      Stopwatch w;
      (void)runner.Run(&sink, &opt_stats);
      opt_s = w.ElapsedSeconds();
    }
    table.AddRow({specs[d].paper_name, TablePrinter::Fmt(ei_s / base, 2),
                  TablePrinter::Fmt(vi_s / base, 2),
                  TablePrinter::Fmt(ayz_s / base, 2),
                  TablePrinter::Fmt(opt_s / base, 2)});
    std::printf("%s: per-kernel intersection throughput (see --kernel)\n",
                specs[d].paper_name.c_str());
    bench::PrintKernelCounters("EdgeIter", ei_delta, ei_s - load);
    bench::PrintKernelCounters("OPT_serial", opt_stats.intersect, opt_s);
  }
  table.Print();
  std::printf("Expected shape (paper Fig. 3b): EdgeIter ~1.0 < OPT_serial "
              "~1.0-1.1 < VertexIter ~1.2 << AYZ.\n");
  return 0;
}
