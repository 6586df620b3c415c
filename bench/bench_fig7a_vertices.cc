// Figure 7a: elapsed time on R-MAT graphs as |V| grows with fixed
// density |E|/|V| = 16. Paper shape: OPT_serial < MGT (gap widening
// with |V|); parallel OPT fastest; GraphChi-Tri slowest with a flat,
// low speed-up.
#include "bench_common.h"

#include "gen/rmat.h"
#include "graph/reorder.h"

using namespace opt;

int main(int argc, char** argv) {
  auto ctx = bench::MakeContext(argc, argv);
  bench::Banner("Figure 7a",
                "Elapsed time (s) vs number of vertices (R-MAT, "
                "|E|/|V|=16)");

  // Paper sweeps 16M..80M; scaled down by scale_shift.
  const uint32_t base_scale =
      static_cast<uint32_t>(std::max(8, 14 - ctx.scale_shift));
  TablePrinter table({"scale (|V|)", "OPT_serial", "MGT",
                      "GraphChi-Tri_serial", "OPT", "GraphChi-Tri"});
  for (uint32_t scale = base_scale; scale < base_scale + 3; ++scale) {
    RmatOptions gen;
    gen.scale = scale;
    gen.edge_factor = 16;
    gen.seed = 7;
    CSRGraph graph = DegreeOrder(GenerateRmat(gen)).graph;
    GraphStoreOptions gso;
    gso.page_size = bench::kPageSize;
    const std::string base = ctx.work_dir + "/fig7a";
    if (Status s = GraphStore::Create(graph, ctx.get_env(), base, gso);
        !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    auto store = GraphStore::Open(ctx.get_env(), base);
    if (!store.ok()) return 1;

    std::vector<std::string> row{
        "2^" + std::to_string(scale) + " (" +
        std::to_string(graph.num_vertices()) + ")"};
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
  std::printf("Expected shape (paper Fig. 7a): OPT_serial 1.5-1.7x faster "
              "than MGT, gap widening with |V|; OPT fastest overall.\n");
  return 0;
}
