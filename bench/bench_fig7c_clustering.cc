// Figure 7c: elapsed time vs clustering coefficient on Holme–Kim
// graphs with fixed |V| and average degree. Paper shape: elapsed time
// of OPT/OPT_serial/MGT stays ~constant as clustering rises, because
// the intersection work depends on degrees, not on how many
// intersections succeed.
#include "bench_common.h"

#include "baselines/inmemory.h"
#include "core/triangle_sink.h"
#include "gen/holme_kim.h"
#include "graph/reorder.h"
#include "graph/stats.h"

using namespace opt;

int main(int argc, char** argv) {
  auto ctx = bench::MakeContext(argc, argv);
  IntersectScope kernel_scope(ctx.kernel.value_or(IntersectKernel::kAuto));
  bench::Banner("Figure 7c",
                "Elapsed time (s) vs clustering coefficient (Holme-Kim "
                "generator, fixed |V| and average degree 10)");

  const auto num_vertices = static_cast<VertexId>(
      1u << std::max(8, 15 - ctx.scale_shift));
  TablePrinter table({"target CC", "measured CC", "triangles",
                      "OPT_serial", "MGT", "OPT"});
  for (double target : {0.10, 0.15, 0.20, 0.25, 0.30}) {
    HolmeKimOptions gen;
    gen.num_vertices = num_vertices;
    gen.edges_per_vertex = 5;  // average degree ~10 as in the paper
    gen.triad_probability = TriadProbabilityForClustering(target, 5);
    gen.seed = 23;
    CSRGraph raw = GenerateHolmeKim(gen);
    // Measure the realized clustering coefficient.
    PerVertexCountSink per_vertex(raw.num_vertices());
    EdgeIteratorInMemory(raw, &per_vertex);
    const double measured =
        AverageClusteringCoefficient(raw, per_vertex.Counts());
    CSRGraph graph = DegreeOrder(raw).graph;

    GraphStoreOptions gso;
    gso.page_size = bench::kPageSize;
    const std::string base = ctx.work_dir + "/fig7c";
    if (Status s = GraphStore::Create(graph, ctx.get_env(), base, gso);
        !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    auto store = GraphStore::Open(ctx.get_env(), base);
    if (!store.ok()) return 1;

    std::vector<std::string> row{TablePrinter::Fmt(target, 2),
                                 TablePrinter::Fmt(measured, 3), ""};
    uint64_t triangles = 0;
    for (Method method :
         {Method::kOptSerial, Method::kMgt, Method::kOpt}) {
      MethodConfig config;
      ctx.Apply(&config);
      config.memory_pages = PagesForBufferPercent(**store, 15.0);
      config.num_threads = ctx.threads;
      config.temp_dir = ctx.work_dir;
      auto result = RunMethod(method, store->get(), ctx.get_env(), config);
      if (!result.ok()) {
        std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
        return 1;
      }
      triangles = result->triangles;
      row.push_back(bench::Secs(result->seconds));
    }
    row[2] = TablePrinter::Fmt(triangles);
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf("Expected shape (paper Fig. 7c): elapsed times flat across "
              "the clustering sweep; triangle count rises with CC.\n");
  return 0;
}
