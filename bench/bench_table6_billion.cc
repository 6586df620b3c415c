// Table 6: elapsed time on the billion-vertex YAHOO graph. The YAHOO
// stand-in is the largest, sparsest dataset in the suite (DESIGN.md §3);
// --scale_shift 0 makes it the biggest graph this harness generates.
// Paper shape: OPT_serial ~2x faster than MGT and ~5x faster than
// GraphChi-Tri_serial; parallel OPT widens the gap (~31x vs GraphChi).
#include "bench_common.h"

using namespace opt;

int main(int argc, char** argv) {
  auto ctx = bench::MakeContext(argc, argv);
  bench::Banner("Table 6",
                "Elapsed time (s) on the YAHOO stand-in (largest, "
                "sparsest dataset; buffer = 10% of graph)");

  auto specs = PaperDatasets(ctx.scale_shift);
  auto store = MaterializeDataset(specs[4] /*YAHOO*/, ctx.get_env(),
                                  ctx.work_dir, bench::kPageSize);
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return 1;
  }
  std::printf("graph: %u pages, %u vertices, %llu directed edges\n",
              (*store)->num_pages(), (*store)->num_vertices(),
              static_cast<unsigned long long>(
                  (*store)->num_directed_edges()));

  TablePrinter table({"method", "elapsed (s)", "triangles", "pages read"});
  const Method methods[] = {Method::kOptSerial, Method::kMgt,
                            Method::kGraphChiTriSerial, Method::kOpt,
                            Method::kGraphChiTri};
  uint64_t expected = 0;
  for (Method method : methods) {
    MethodConfig config;
    config.memory_pages = PagesForBufferPercent(**store, 10.0);
    config.num_threads = ctx.threads;
    config.temp_dir = ctx.work_dir;
    auto result = RunMethod(method, store->get(), ctx.get_env(), config);
    if (!result.ok()) {
      std::fprintf(stderr, "%s: %s\n", MethodName(method),
                   result.status().ToString().c_str());
      return 1;
    }
    if (expected == 0) expected = result->triangles;
    if (result->triangles != expected) {
      std::fprintf(stderr, "COUNT MISMATCH for %s\n", MethodName(method));
      return 1;
    }
    table.AddRow({result->method, bench::Secs(result->seconds),
                  TablePrinter::Fmt(result->triangles),
                  TablePrinter::Fmt(result->pages_read)});
  }
  table.Print();
  std::printf("Expected shape (paper Table 6): OPT_serial ~2x faster than "
              "MGT, ~5x faster than GraphChi-Tri_serial; OPT fastest.\n");
  return 0;
}
