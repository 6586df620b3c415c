// Figure 4: thread-morphing effect. (a) Per-iteration elapsed time of
// the internal-triangulation role vs the external-triangulation role
// with and without morphing; (b) cumulative elapsed time of OPT with
// morphing, without morphing, and OPT_serial. Paper shape: without
// morphing one role idles each iteration; with morphing the roles
// balance and the cumulative time approaches OPT_serial / 2 on two
// cores.
#include "bench_common.h"

#include "core/iterator_model.h"
#include "core/opt_runner.h"
#include "core/triangle_sink.h"

using namespace opt;

namespace {

Result<OptRunStats> RunVariant(const bench::BenchContext& ctx,
                               GraphStore* store, uint32_t buffer,
                               bool macro, bool morph, uint32_t threads) {
  OptOptions options;
  ctx.Apply(&options);
  options.m_in = std::max(buffer / 2, store->MaxRecordPages());
  options.m_ex = std::max(1u, buffer / 2);
  options.macro_overlap = macro;
  options.thread_morphing = morph;
  options.num_threads = threads;
  EdgeIteratorModel model;
  OptRunner runner(store, &model, options);
  CountingSink sink;
  OptRunStats stats;
  OPT_RETURN_IF_ERROR(runner.Run(&sink, &stats));
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  auto ctx = bench::MakeContext(argc, argv);
  bench::Banner("Figure 4",
                "Thread-morphing effect, UK stand-in (per-iteration role "
                "times and cumulative elapsed time)");

  auto specs = PaperDatasets(ctx.scale_shift);
  auto store = MaterializeDataset(specs[3] /*UK*/, ctx.get_env(),
                                  ctx.work_dir, bench::kPageSize);
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return 1;
  }
  const uint32_t buffer = PagesForBufferPercent(**store, 15.0);

  auto no_morph = RunVariant(ctx, store->get(), buffer, true, false, 2);
  auto with_morph = RunVariant(ctx, store->get(), buffer, true, true, 2);
  auto serial = RunVariant(ctx, store->get(), buffer, false, false, 1);
  if (!no_morph.ok() || !with_morph.ok() || !serial.ok()) {
    std::fprintf(stderr, "run failed\n");
    return 1;
  }

  std::printf("\n(a) per-iteration CPU seconds by role (no morphing: the "
              "roles are imbalanced; morphing: balanced)\n");
  TablePrinter per_iter({"iter", "no-morph internal", "no-morph external",
                         "morph internal", "morph external",
                         "morph wall"});
  const size_t iters = std::min(no_morph->per_iteration.size(),
                                with_morph->per_iteration.size());
  for (size_t i = 0; i < iters; ++i) {
    const auto& nm = no_morph->per_iteration[i];
    const auto& wm = with_morph->per_iteration[i];
    per_iter.AddRow({TablePrinter::Fmt(static_cast<uint64_t>(i + 1)),
                     bench::Secs(nm.internal_cpu_seconds),
                     bench::Secs(nm.external_cpu_seconds),
                     bench::Secs(wm.internal_cpu_seconds),
                     bench::Secs(wm.external_cpu_seconds),
                     bench::Secs(wm.overlap_seconds)});
  }
  per_iter.Print();

  std::printf("\n(b) cumulative elapsed time (s)\n");
  TablePrinter cumulative({"variant", "elapsed (s)", "vs OPT_serial"});
  const double base = serial->elapsed_seconds;
  cumulative.AddRow({"OPT_serial", bench::Secs(base), "1.00"});
  cumulative.AddRow({"OPT w/o morphing",
                     bench::Secs(no_morph->elapsed_seconds),
                     TablePrinter::Fmt(base / no_morph->elapsed_seconds, 2)});
  cumulative.AddRow({"OPT with morphing",
                     bench::Secs(with_morph->elapsed_seconds),
                     TablePrinter::Fmt(base / with_morph->elapsed_seconds,
                                       2)});
  cumulative.Print();
  std::printf("Expected shape (paper Fig. 4b): morphing ~2x over "
              "OPT_serial on 2 cores; without morphing only ~1.1-1.3x.\n"
              "(On a single-core CI machine the CPU-side gain collapses; "
              "the I/O-overlap gain remains.)\n");

  bench::BenchReport report_out("fig4_morphing");
  const struct {
    const char* config;
    const OptRunStats* stats;
  } json_rows[] = {{"opt_serial", &*serial},
                   {"opt_no_morph", &*no_morph},
                   {"opt_morph", &*with_morph}};
  for (const auto& jr : json_rows) {
    bench::JsonObject row;
    row.Add("config", jr.config)
        .Add("seconds", jr.stats->elapsed_seconds)
        .Add("speedup_vs_serial", base / jr.stats->elapsed_seconds, 3)
        .Add("morph_events", jr.stats->overlap.morph_events);
    bench::AddPerfColumns(&row, jr.stats->PerfTotal());
    report_out.AddRow(row);
  }
  std::printf("\nJSON:\n%s", report_out.Render().c_str());
  return report_out.MaybeWrite(ctx) ? 0 : 1;
}
