// Table 4: elapsed time of OPT and GraphChi-Tri using 1 and N CPU
// cores. Paper shape: OPT beats GraphChi-Tri at every dataset and
// thread count, by up to ~13x at 6 cores.
#include "bench_common.h"

using namespace opt;

int main(int argc, char** argv) {
  auto ctx = bench::MakeContext(argc, argv);
  bench::Banner("Table 4",
                "Elapsed time (s) of OPT and GraphChi-Tri using 1 and N "
                "CPU threads (N = --threads)");

  TablePrinter table({"method", "LJ", "ORKUT", "TWITTER", "UK"});
  auto specs = PaperDatasets(ctx.scale_shift);
  std::vector<std::unique_ptr<GraphStore>> stores;
  for (size_t d = 0; d < 4; ++d) {
    auto store = MaterializeDataset(specs[d], ctx.get_env(), ctx.work_dir,
                                    bench::kPageSize);
    if (!store.ok()) {
      std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
      return 1;
    }
    stores.push_back(std::move(store.value()));
  }

  std::vector<std::vector<double>> seconds(4);  // per method row
  const struct {
    Method method;
    uint32_t threads;
    const char* label;
  } rows[] = {
      {Method::kOptSerial, 1, "OPT_serial"},
      {Method::kGraphChiTriSerial, 1, "GraphChi-Tri_serial"},
      {Method::kOpt, 0, "OPT"},
      {Method::kGraphChiTri, 0, "GraphChi-Tri"},
  };
  bench::BenchReport report_out("table4_parallel");
  for (size_t r = 0; r < 4; ++r) {
    std::vector<std::string> row{rows[r].label};
    for (size_t d = 0; d < 4; ++d) {
      MethodConfig config;
      config.memory_pages = PagesForBufferPercent(*stores[d], 15.0);
      config.num_threads =
          rows[r].threads == 0 ? ctx.threads : rows[r].threads;
      config.temp_dir = ctx.work_dir;
      auto result =
          RunMethod(rows[r].method, stores[d].get(), ctx.get_env(), config);
      if (!result.ok()) {
        std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
        return 1;
      }
      seconds[r].push_back(result->seconds);
      row.push_back(bench::Secs(result->seconds));
      bench::JsonObject json_row;
      json_row
          .Add("config",
               std::string(rows[r].label) + "/" + specs[d].name)
          .Add("threads", config.num_threads)
          .Add("seconds", result->seconds)
          .Add("triangles", result->triangles)
          .Add("pages_read", result->pages_read);
      report_out.AddRow(json_row);
    }
    table.AddRow(std::move(row));
  }
  // GraphChi-Tri / OPT ratio row (parallel).
  std::vector<std::string> ratio{"GraphChi-Tri/OPT"};
  for (size_t d = 0; d < 4; ++d) {
    ratio.push_back(TablePrinter::Fmt(seconds[3][d] / seconds[2][d], 2));
  }
  table.AddRow(std::move(ratio));
  table.Print();
  std::printf("Expected shape (paper Table 4): OPT < GraphChi-Tri "
              "everywhere; ratio up to ~13x at 6 cores.\n");
  std::printf("\nJSON:\n%s", report_out.Render().c_str());
  return report_out.MaybeWrite(ctx) ? 0 : 1;
}
