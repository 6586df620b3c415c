// Figure 6 + Table 5: speed-up of OPT and GraphChi-Tri as CPU threads
// grow, with the measured Amdahl parallel fraction p and the resulting
// upper bound ub^c = 1/((1-p) + p/c). Paper shape: OPT has p > 0.95 and
// scales nearly linearly; GraphChi-Tri saturates below 2.5x.
#include "bench_common.h"

#include "harness/amdahl.h"

using namespace opt;

int main(int argc, char** argv) {
  auto ctx = bench::MakeContext(argc, argv);
  bench::Banner("Figure 6 / Table 5",
                "Speed-up vs threads, measured parallel fraction p, and "
                "the Amdahl upper bound");

  auto specs = PaperDatasets(ctx.scale_shift);
  bench::BenchReport report_out("fig6_table5_speedup");
  for (size_t d : {2u, 3u}) {  // TWITTER, UK (the figure's datasets)
    auto store = MaterializeDataset(specs[d], ctx.get_env(), ctx.work_dir,
                                    bench::kPageSize);
    if (!store.ok()) {
      std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
      return 1;
    }
    std::printf("\n%s\n", specs[d].name.c_str());
    TablePrinter table({"threads", "OPT (s)", "OPT speedup", "OPT ub",
                        "GraphChi (s)", "GraphChi speedup", "GraphChi ub"});
    double opt_base = 0, chi_base = 0, opt_p = 0, chi_p = 0;
    for (uint32_t threads : {1u, 2u, 3u, 4u, 6u}) {
      MethodConfig config;
      ctx.Apply(&config);
      config.memory_pages = PagesForBufferPercent(**store, 15.0);
      config.num_threads = threads;
      config.temp_dir = ctx.work_dir;
      auto opt = RunMethod(threads == 1 ? Method::kOptSerial : Method::kOpt,
                           store->get(), ctx.get_env(), config);
      auto chi = RunMethod(threads == 1 ? Method::kGraphChiTriSerial
                                        : Method::kGraphChiTri,
                           store->get(), ctx.get_env(), config);
      if (!opt.ok() || !chi.ok()) {
        std::fprintf(stderr, "run failed\n");
        return 1;
      }
      if (threads == 1) {
        opt_base = opt->seconds;
        chi_base = chi->seconds;
        opt_p = opt->parallel_fraction;
        chi_p = chi->parallel_fraction;
      }
      table.AddRow({TablePrinter::Fmt(uint64_t{threads}),
                    bench::Secs(opt->seconds),
                    TablePrinter::Fmt(opt_base / opt->seconds, 2),
                    TablePrinter::Fmt(AmdahlUpperBound(opt_p, threads), 2),
                    bench::Secs(chi->seconds),
                    TablePrinter::Fmt(chi_base / chi->seconds, 2),
                    TablePrinter::Fmt(AmdahlUpperBound(chi_p, threads), 2)});
      for (const MethodResult* run : {&*opt, &*chi}) {
        const bool is_opt = run == &*opt;
        bench::JsonObject row;
        row.Add("config", specs[d].name + "/" + run->method + "/t" +
                              std::to_string(threads))
            .Add("seconds", run->seconds)
            .Add("speedup", (is_opt ? opt_base : chi_base) / run->seconds, 3)
            .Add("amdahl_ub",
                 AmdahlUpperBound(is_opt ? opt_p : chi_p, threads), 3);
        report_out.AddRow(std::move(row));
      }
    }
    table.Print();
    std::printf("measured parallel fraction p: OPT=%.3f GraphChi=%.3f\n",
                opt_p, chi_p);
  }
  std::printf("Expected shape (paper Fig. 6/Table 5): OPT p>0.95, near-"
              "linear speedup; GraphChi p<0.75, saturating below 2.5x.\n"
              "(Real CPU speedups require a multi-core host; on 1-core CI "
              "only the I/O-overlap component shows.)\n");

  // Hub-split sweep (DODG bitmap hybrid): OPT on the skewed TWITTER
  // stand-in under the bitmap kernel at each split point, against the
  // merge-kernel baseline. Counts must match exactly; the bitmap.*
  // counters show how much work the hub path absorbed.
  {
    const IntersectKernel bitmap_kernel =
        IntersectKernelSupported(IntersectKernel::kBitmap)
            ? IntersectKernel::kBitmap
            : IntersectKernel::kBitmapScalar;
    auto store = MaterializeDataset(specs[2], ctx.get_env(), ctx.work_dir,
                                    bench::kPageSize);
    if (!store.ok()) {
      std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
      return 1;
    }
    std::printf("\nHub-split sweep: %s, OPT, kernel=%s vs merge baseline\n",
                specs[2].name.c_str(), IntersectKernelName(bitmap_kernel));
    MethodConfig config;
    config.memory_pages = PagesForBufferPercent(**store, 15.0);
    config.num_threads = std::max(2u, ctx.threads);
    config.temp_dir = ctx.work_dir;
    auto baseline = RunMethod(Method::kOpt, store->get(), ctx.get_env(),
                              config);
    if (!baseline.ok()) {
      std::fprintf(stderr, "%s\n", baseline.status().ToString().c_str());
      return 1;
    }
    TablePrinter table({"hub_split", "threshold", "hubs", "seconds",
                        "speedup vs merge", "bitmap calls"});
    table.AddRow({"merge", "-", "-", bench::Secs(baseline->seconds),
                  TablePrinter::Fmt(1.0, 2), "0"});
    {
      bench::JsonObject row;
      row.Add("config", "hub_sweep/merge")
          .Add("seconds", baseline->seconds)
          .Add("speedup_vs_merge", 1.0, 3);
      report_out.AddRow(std::move(row));
    }
    for (const char* split_text : {"off", "p90", "p99", "auto", "0"}) {
      MethodConfig sweep = config;
      sweep.kernel = bitmap_kernel;
      sweep.hub_split = *HubSplitSpec::Parse(split_text);
      auto result = RunMethod(Method::kOpt, store->get(), ctx.get_env(),
                              sweep);
      if (!result.ok()) {
        std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
        return 1;
      }
      if (result->triangles != baseline->triangles) {
        std::fprintf(stderr,
                     "hub_split=%s triangle mismatch: %llu vs %llu\n",
                     split_text,
                     static_cast<unsigned long long>(result->triangles),
                     static_cast<unsigned long long>(baseline->triangles));
        return 1;
      }
      const uint64_t bitmap_calls =
          result->intersect
              .calls[static_cast<int>(IntersectKernel::kBitmap)] +
          result->intersect
              .calls[static_cast<int>(IntersectKernel::kBitmapScalar)];
      table.AddRow(
          {split_text,
           result->hub_bitmaps_built > 0
               ? TablePrinter::Fmt(uint64_t{result->hub_degree_threshold})
               : "-",
           TablePrinter::Fmt(result->hub_bitmaps_built),
           bench::Secs(result->seconds),
           TablePrinter::Fmt(baseline->seconds / result->seconds, 2),
           TablePrinter::Fmt(bitmap_calls)});
      bench::PrintKernelCounters(split_text, result->intersect,
                                 result->seconds);
      bench::JsonObject row;
      row.Add("config", std::string("hub_sweep/") + split_text)
          .Add("seconds", result->seconds)
          .Add("speedup_vs_merge", baseline->seconds / result->seconds, 3)
          .Add("bitmap_calls", bitmap_calls)
          .Add("hub_bitmaps_built", result->hub_bitmaps_built)
          .Add("hub_degree_threshold",
               uint64_t{result->hub_degree_threshold});
      report_out.AddRow(std::move(row));
    }
    table.Print();
    std::printf("Counts verified equal across every split point.\n");
  }
  std::printf("\nJSON:\n%s", report_out.Render().c_str());
  return report_out.MaybeWrite(ctx) ? 0 : 1;
}
