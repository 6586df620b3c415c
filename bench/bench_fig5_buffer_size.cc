// Figure 5: effect of the memory buffer size (5%..25%) on the elapsed
// time of the five disk-based methods, single-threaded. Paper shape:
// slow group (GraphChi-Tri, CC-Seq, CC-DS) degrades sharply at small
// buffers because it rewrites remaining edges every iteration; fast
// group (MGT, OPT_serial) stays flat, with OPT_serial always fastest.
#include "bench_common.h"

using namespace opt;

int main(int argc, char** argv) {
  auto ctx = bench::MakeContext(argc, argv);
  bench::Banner("Figure 5",
                "Elapsed time (s) vs memory buffer size, single thread "
                "(TWITTER and UK stand-ins)");

  auto specs = PaperDatasets(ctx.scale_shift);
  const Method methods[] = {Method::kGraphChiTriSerial, Method::kCcSeq,
                            Method::kCcDs, Method::kMgt,
                            Method::kOptSerial};
  for (size_t d : {2u, 3u}) {  // TWITTER, UK
    auto store = MaterializeDataset(specs[d], ctx.get_env(), ctx.work_dir,
                                    bench::kPageSize);
    if (!store.ok()) {
      std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
      return 1;
    }
    std::printf("\n%s (%u pages)\n", specs[d].name.c_str(),
                (*store)->num_pages());
    TablePrinter table({"buffer %", "GraphChi-Tri", "CC-Seq", "CC-DS",
                        "MGT", "OPT_serial"});
    uint64_t expected = 0;
    for (double percent : {5.0, 10.0, 15.0, 20.0, 25.0}) {
      std::vector<std::string> row{TablePrinter::Fmt(percent, 0)};
      for (Method method : methods) {
        MethodConfig config;
        config.memory_pages = PagesForBufferPercent(**store, percent);
        config.num_threads = 1;
        config.temp_dir = ctx.work_dir;
        auto result = RunMethod(method, store->get(), ctx.get_env(), config);
        if (!result.ok()) {
          std::fprintf(stderr, "%s: %s\n", MethodName(method),
                       result.status().ToString().c_str());
          return 1;
        }
        if (expected == 0) expected = result->triangles;
        if (result->triangles != expected) {
          std::fprintf(stderr, "COUNT MISMATCH for %s\n",
                       MethodName(method));
          return 1;
        }
        row.push_back(bench::Secs(result->seconds));
      }
      table.AddRow(std::move(row));
    }
    table.Print();
  }
  std::printf("Expected shape (paper Fig. 5): slow group (GraphChi/CC-*) "
              "2-10x slower and buffer-sensitive; fast group (MGT, "
              "OPT_serial) flat; OPT_serial lowest everywhere.\n");
  return 0;
}
