// Figure 7b: elapsed time on R-MAT graphs as density |E|/|V| sweeps
// {4, 8, 16, 32} at fixed |V|. Paper shape: all methods grow with
// density; OPT_serial 1.3-2x faster than MGT; OPT's speed-up improves
// with density (more CPU work to overlap).
#include "bench_common.h"

#include "gen/rmat.h"
#include "graph/reorder.h"

using namespace opt;

int main(int argc, char** argv) {
  auto ctx = bench::MakeContext(argc, argv);
  bench::Banner("Figure 7b",
                "Elapsed time (s) vs density |E|/|V| (R-MAT, fixed |V|)");

  const uint32_t scale =
      static_cast<uint32_t>(std::max(8, 14 - ctx.scale_shift));
  TablePrinter table({"|E|/|V|", "OPT_serial", "MGT",
                      "GraphChi-Tri_serial", "OPT", "GraphChi-Tri"});
  for (uint32_t density : {4u, 8u, 16u, 32u}) {
    RmatOptions gen;
    gen.scale = scale;
    gen.edge_factor = density;
    gen.seed = 11;
    CSRGraph graph = DegreeOrder(GenerateRmat(gen)).graph;
    GraphStoreOptions gso;
    gso.page_size = bench::kPageSize;
    const std::string base = ctx.work_dir + "/fig7b";
    if (Status s = GraphStore::Create(graph, ctx.get_env(), base, gso);
        !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    auto store = GraphStore::Open(ctx.get_env(), base);
    if (!store.ok()) return 1;

    std::vector<std::string> row{TablePrinter::Fmt(uint64_t{density})};
    uint64_t expected = 0;
    for (Method method :
         {Method::kOptSerial, Method::kMgt, Method::kGraphChiTriSerial,
          Method::kOpt, Method::kGraphChiTri}) {
      MethodConfig config;
      config.memory_pages = PagesForBufferPercent(**store, 15.0);
      config.num_threads = ctx.threads;
      config.temp_dir = ctx.work_dir;
      auto result = RunMethod(method, store->get(), ctx.get_env(), config);
      if (!result.ok()) {
        std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
        return 1;
      }
      if (expected == 0) expected = result->triangles;
      if (result->triangles != expected) {
        std::fprintf(stderr, "COUNT MISMATCH for %s\n", MethodName(method));
        return 1;
      }
      row.push_back(bench::Secs(result->seconds));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf("Expected shape (paper Fig. 7b): OPT_serial 1.3-2x faster "
              "than MGT at every density; OPT fastest.\n");
  return 0;
}
