// Extension bench: the subgraph-listing direction from the paper's
// conclusion — 4-clique counting and k-truss decomposition built on the
// same ordered-intersection machinery, with elapsed times relative to
// plain triangle listing.
#include "bench_common.h"

#include "analysis/clique4.h"
#include "analysis/ktruss.h"
#include "baselines/inmemory.h"
#include "core/triangle_sink.h"
#include "gen/holme_kim.h"
#include "graph/reorder.h"
#include "util/stopwatch.h"

using namespace opt;

int main(int argc, char** argv) {
  auto ctx = bench::MakeContext(argc, argv);
  IntersectScope kernel_scope(ctx.kernel.value_or(IntersectKernel::kAuto));
  bench::Banner("Extension: subgraph listing beyond triangles",
                "Triangles vs 4-cliques vs k-truss on a clustered "
                "Holme-Kim graph");

  HolmeKimOptions gen;
  gen.num_vertices = static_cast<VertexId>(
      1u << std::max(8, 14 - ctx.scale_shift));
  gen.edges_per_vertex = 6;
  gen.triad_probability = 0.6;
  gen.seed = 29;
  CSRGraph g = DegreeOrder(GenerateHolmeKim(gen)).graph;

  TablePrinter table({"analysis", "result", "elapsed (s)"});
  {
    CountingSink sink;
    Stopwatch watch;
    EdgeIteratorInMemory(g, &sink, ctx.threads);
    table.AddRow({"triangle count",
                  TablePrinter::Fmt(sink.count()),
                  bench::Secs(watch.ElapsedSeconds())});
  }
  {
    Stopwatch watch;
    const uint64_t cliques = Count4Cliques(g, ctx.threads);
    table.AddRow({"4-clique count", TablePrinter::Fmt(cliques),
                  bench::Secs(watch.ElapsedSeconds())});
  }
  {
    Stopwatch watch;
    KTrussResult truss = KTrussDecomposition(g);
    table.AddRow({"k-truss (max k)",
                  TablePrinter::Fmt(uint64_t{truss.max_truss}),
                  bench::Secs(watch.ElapsedSeconds())});
  }
  table.Print();
  std::printf("Expected shape: 4-cliques cost a small multiple of "
              "triangles (one extra intersection level); truss peeling "
              "adds a support-update pass.\n");
  return 0;
}
