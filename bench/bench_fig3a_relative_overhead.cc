// Figure 3a: relative elapsed time of OPT_serial versus the ideal
// method while varying the memory buffer from 5% to 25% of the graph
// size. The paper's claim (§5.3): <= 7% overhead at the 15% elbow, and
// sometimes *negative* overhead thanks to the backward external-load
// buffering (Δin > Δex).
#include "bench_common.h"

#include "core/ideal.h"
#include "core/iterator_model.h"
#include "core/opt_runner.h"
#include "core/triangle_sink.h"
#include "util/stopwatch.h"

using namespace opt;

int main(int argc, char** argv) {
  auto ctx = bench::MakeContext(argc, argv);
  IntersectScope kernel_scope(ctx.kernel.value_or(IntersectKernel::kAuto));
  bench::Banner("Figure 3a",
                "OPT_serial relative elapsed time vs buffer size "
                "(1.0 = ideal: one scan + in-memory edge-iterator)");

  TablePrinter table({"dataset", "buffer %", "ideal (s)", "OPT_serial (s)",
                      "relative", "overhead %", "saved pages (Δin)"});
  auto specs = PaperDatasets(ctx.scale_shift);
  for (size_t d = 0; d < 4; ++d) {  // LJ, ORKUT, TWITTER, UK
    auto store = MaterializeDataset(specs[d], ctx.get_env(), ctx.work_dir,
                                    bench::kPageSize);
    if (!store.ok()) {
      std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
      return 1;
    }
    // Ideal: measured once per dataset (buffer-independent).
    EdgeIteratorModel model;
    IdealStats ideal;
    CountingSink ideal_sink;
    if (Status s = RunIdeal(store->get(), model, &ideal_sink, 1, &ideal);
        !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    for (double percent : {5.0, 10.0, 15.0, 20.0, 25.0}) {
      const uint32_t buffer = PagesForBufferPercent(**store, percent);
      OptOptions options;
      ctx.Apply(&options);
      options.m_in =
          std::max(buffer / 2, (*store)->MaxRecordPages());
      options.m_ex = std::max(1u, buffer / 2);
      options.macro_overlap = false;
      options.thread_morphing = false;
      OptRunner runner(store->get(), &model, options);
      CountingSink sink;
      OptRunStats stats;
      Stopwatch watch;
      if (Status s = runner.Run(&sink, &stats); !s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
      const double opt_seconds = watch.ElapsedSeconds();
      const double relative = opt_seconds / ideal.elapsed_seconds;
      table.AddRow(
          {specs[d].paper_name, TablePrinter::Fmt(percent, 0),
           bench::Secs(ideal.elapsed_seconds), bench::Secs(opt_seconds),
           TablePrinter::Fmt(relative, 3),
           TablePrinter::Fmt(100.0 * (relative - 1.0), 1),
           TablePrinter::Fmt(stats.internal_cache_hits +
                             stats.external_cache_hits)});
      if (sink.count() != ideal_sink.count()) {
        std::fprintf(stderr, "COUNT MISMATCH on %s\n",
                     specs[d].paper_name.c_str());
        return 1;
      }
    }
  }
  table.Print();
  std::printf("Expected shape (paper Fig. 3a): relative time falls until "
              "~15%% buffer, then stabilizes near 1.0 (within ~7%%).\n");
  return 0;
}
