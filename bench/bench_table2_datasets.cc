// Table 2: basic statistics on the datasets. Prints |V|, |E|, and the
// exact triangle count for each synthetic stand-in (DESIGN.md §3 maps
// each to its paper dataset).
#include "bench_common.h"

#include "baselines/inmemory.h"
#include "core/triangle_sink.h"
#include "graph/stats.h"

using namespace opt;

int main(int argc, char** argv) {
  auto ctx = bench::MakeContext(argc, argv);
  IntersectScope kernel_scope(ctx.kernel.value_or(IntersectKernel::kAuto));
  bench::Banner("Table 2", "Basic statistics on the datasets (synthetic "
                           "stand-ins; see DESIGN.md for the mapping)");

  TablePrinter table({"dataset", "|V|", "|E|", "# of triangles",
                      "max deg", "avg deg"});
  for (const auto& spec : PaperDatasets(ctx.scale_shift)) {
    CSRGraph g = BuildDataset(spec);
    GraphStats stats = ComputeStats(g);
    CountingSink sink;
    EdgeIteratorInMemory(g, &sink, ctx.threads);
    table.AddRow({spec.name, TablePrinter::Fmt(uint64_t{stats.num_vertices}),
                  TablePrinter::Fmt(stats.num_edges),
                  TablePrinter::Fmt(sink.count()),
                  TablePrinter::Fmt(uint64_t{stats.max_degree}),
                  TablePrinter::Fmt(stats.avg_degree, 2)});
  }
  table.Print();
  return 0;
}
