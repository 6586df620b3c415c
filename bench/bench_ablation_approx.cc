// Ablation: exact listing vs approximate counting (the related-work
// family the paper argues against for general triangulation, §1/§4).
// Shows the accuracy/cost trade-off of Doulion and wedge sampling
// against the exact edge-iterator.
#include "bench_common.h"

#include "baselines/approx.h"
#include "baselines/inmemory.h"
#include "core/triangle_sink.h"
#include "gen/rmat.h"
#include "graph/reorder.h"
#include "util/stopwatch.h"

using namespace opt;

int main(int argc, char** argv) {
  auto ctx = bench::MakeContext(argc, argv);
  IntersectScope kernel_scope(ctx.kernel.value_or(IntersectKernel::kAuto));
  bench::Banner("Ablation: exact vs approximate counting",
                "Doulion sparsification and wedge sampling against the "
                "exact ordered edge-iterator (R-MAT)");

  RmatOptions gen;
  gen.scale = static_cast<uint32_t>(std::max(8, 15 - ctx.scale_shift));
  gen.edge_factor = 16;
  gen.seed = 19;
  CSRGraph g = DegreeOrder(GenerateRmat(gen)).graph;

  CountingSink exact_sink;
  Stopwatch exact_watch;
  EdgeIteratorInMemory(g, &exact_sink);
  const double exact_seconds = exact_watch.ElapsedSeconds();
  const double exact = static_cast<double>(exact_sink.count());

  TablePrinter table({"method", "parameter", "estimate", "mean |err| %",
                      "elapsed (s)", "lists triangles?"});
  table.AddRow({"EdgeIterator (exact)", "-", TablePrinter::Fmt(exact, 0),
                "0.0", bench::Secs(exact_seconds), "yes"});
  constexpr int kSeeds = 5;  // mean absolute error over seeds
  for (double p : {0.1, 0.3, 0.5}) {
    double err = 0, secs = 0, last = 0;
    for (int seed = 0; seed < kSeeds; ++seed) {
      ApproxResult result = DoulionEstimate(g, p, 50 + seed);
      err += std::abs(result.estimate - exact) / exact;
      secs += result.elapsed_seconds;
      last = result.estimate;
    }
    table.AddRow({"Doulion", "p=" + TablePrinter::Fmt(p, 1),
                  TablePrinter::Fmt(last, 0),
                  TablePrinter::Fmt(100.0 * err / kSeeds, 1),
                  bench::Secs(secs / kSeeds), "no"});
  }
  for (uint64_t samples : {1000ull, 10000ull, 100000ull}) {
    double err = 0, secs = 0, last = 0;
    for (int seed = 0; seed < kSeeds; ++seed) {
      ApproxResult result = WedgeSamplingEstimate(g, samples, 50 + seed);
      err += std::abs(result.estimate - exact) / exact;
      secs += result.elapsed_seconds;
      last = result.estimate;
    }
    table.AddRow({"Wedge sampling", "k=" + TablePrinter::Fmt(samples),
                  TablePrinter::Fmt(last, 0),
                  TablePrinter::Fmt(100.0 * err / kSeeds, 1),
                  bench::Secs(secs / kSeeds), "no"});
  }
  table.Print();
  std::printf("Expected shape: error shrinks with p / samples; neither "
              "method yields the triangle *listing* that the paper's "
              "applications require.\n");
  return 0;
}
