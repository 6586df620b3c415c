// Ablation: the two-level overlap machinery. Sweeps (a) the async-read
// queue depth (micro-level overlap: how much external I/O hides behind
// CPU), (b) the m_in : m_ex buffer split (the paper picks 50:50 "to
// maximize the buffering effect", §5.1), (c) the external load order,
// and (d) the sampled overlap profile + cost-model residual, emitted as
// machine-readable JSON (see --json_out) so CI can track the overlap
// fractions and the profiler's own overhead across commits.
#include "bench_common.h"

#include <fstream>

#include "core/iterator_model.h"
#include "core/opt_runner.h"
#include "core/triangle_sink.h"
#include "util/stopwatch.h"

using namespace opt;

namespace {

struct RunMetrics {
  double seconds = 0;
  uint64_t saved_pages = 0;
  OptRunStats stats;
};

struct RunConfig {
  uint32_t m_in = 0;
  uint32_t m_ex = 0;
  uint32_t queue_depth = 16;
  bool backward = true;
  bool macro_overlap = false;  // OPT_serial isolates the micro level
  bool thread_morphing = false;
  uint32_t num_threads = 1;
  bool profile = false;
  uint64_t profile_period_micros = 250;  // bench runs are short
};

Result<RunMetrics> RunOnce(GraphStore* store, const RunConfig& config) {
  OptOptions options;
  options.m_in = std::max(config.m_in, store->MaxRecordPages());
  options.m_ex = std::max(1u, config.m_ex);
  options.macro_overlap = config.macro_overlap;
  options.thread_morphing = config.thread_morphing;
  options.num_threads = config.num_threads;
  options.io_queue_depth = config.queue_depth;
  options.backward_external_order = config.backward;
  options.profile = config.profile;
  options.profile_period_micros = config.profile_period_micros;
  EdgeIteratorModel model;
  OptRunner runner(store, &model, options);
  CountingSink sink;
  OptRunStats stats;
  Stopwatch watch;
  OPT_RETURN_IF_ERROR(runner.Run(&sink, &stats));
  RunMetrics metrics;
  metrics.seconds = watch.ElapsedSeconds();
  metrics.saved_pages = stats.internal_cache_hits + stats.external_cache_hits;
  metrics.stats = stats;
  return metrics;
}

/// One profiled configuration as a unified-schema row (bench_common.h).
bench::JsonObject OverlapRow(const char* config, const RunMetrics& off,
                             const RunMetrics& on) {
  const OverlapReport& r = on.stats.overlap;
  const double overhead =
      off.seconds > 0 ? (on.seconds - off.seconds) / off.seconds : 0.0;
  bench::JsonObject row;
  row.Add("config", config)
      .Add("seconds", on.seconds)
      .Add("seconds_unprofiled", off.seconds)
      .Add("profiler_overhead_frac", overhead)
      .Add("samples", r.samples)
      .Add("micro_overlap", r.MicroOverlapFraction(), 4)
      .Add("macro_overlap", r.MacroOverlapFraction(), 4)
      .Add("stalled_samples", r.stalled_samples)
      .Add("morph_events", r.morph_events)
      .Add("cost_c_seconds_per_page", r.cost.c_seconds_per_page, 8)
      .Add("delta_in_pages", r.cost.delta_in_pages)
      .Add("delta_ex_pages", r.cost.delta_ex_pages)
      .Add("cost_ideal_seconds", r.cost.ideal_seconds)
      .Add("cost_predicted_seconds", r.cost.predicted_seconds)
      .Add("cost_measured_seconds", r.cost.measured_seconds)
      .Add("cost_residual_seconds", r.cost.residual_seconds);
  bench::AddPerfColumns(&row, on.stats.PerfTotal());
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  auto ctx = bench::MakeContext(argc, argv);
  bench::Banner("Ablation: overlap machinery",
                "(a) async queue depth (micro overlap), (b) internal/"
                "external buffer split — UK stand-in, 15% buffer");

  auto specs = PaperDatasets(ctx.scale_shift);
  auto store = MaterializeDataset(specs[3], ctx.get_env(), ctx.work_dir,
                                  bench::kPageSize);
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return 1;
  }
  const uint32_t budget = PagesForBufferPercent(**store, 15.0);

  std::printf("\n(a) OPT_serial elapsed vs emulated SSD queue depth\n");
  TablePrinter depth_table({"queue depth", "elapsed (s)"});
  for (uint32_t depth : {1u, 2u, 4u, 8u, 16u, 32u}) {
    RunConfig config;
    config.m_in = budget / 2;
    config.m_ex = budget / 2;
    config.queue_depth = depth;
    auto seconds = RunOnce(store->get(), config);
    if (!seconds.ok()) {
      std::fprintf(stderr, "%s\n", seconds.status().ToString().c_str());
      return 1;
    }
    depth_table.AddRow({TablePrinter::Fmt(uint64_t{depth}),
                        bench::Secs(seconds->seconds)});
  }
  depth_table.Print();
  std::printf("Expected: elapsed falls as depth grows (more external "
              "reads hidden behind CPU) and saturates once I/O is fully "
              "overlapped.\n");

  std::printf("\n(b) OPT_serial elapsed vs m_in share of the budget\n");
  TablePrinter split_table({"m_in : m_ex", "elapsed (s)"});
  for (uint32_t in_pct : {25u, 50u, 75u}) {
    RunConfig config;
    config.m_in = std::max(1u, budget * in_pct / 100);
    config.m_ex = std::max(1u, budget - config.m_in);
    auto seconds = RunOnce(store->get(), config);
    if (!seconds.ok()) {
      std::fprintf(stderr, "%s\n", seconds.status().ToString().c_str());
      return 1;
    }
    split_table.AddRow({std::to_string(in_pct) + " : " +
                            std::to_string(100 - in_pct),
                        bench::Secs(seconds->seconds)});
  }
  split_table.Print();
  std::printf("Expected (§5.1): the even split is at or near the "
              "minimum — small m_in multiplies iterations, small m_ex "
              "throttles the external pipeline.\n");

  std::printf("\n(c) external load order: backward (paper) vs ascending\n");
  TablePrinter order_table({"order", "elapsed (s)", "saved page reads"});
  for (bool backward : {true, false}) {
    RunConfig config;
    config.m_in = budget / 2;
    config.m_ex = budget / 2;
    config.backward = backward;
    auto metrics = RunOnce(store->get(), config);
    if (!metrics.ok()) {
      std::fprintf(stderr, "%s\n", metrics.status().ToString().c_str());
      return 1;
    }
    order_table.AddRow({backward ? "backward (Algorithm 4)" : "ascending",
                        bench::Secs(metrics->seconds),
                        TablePrinter::Fmt(metrics->saved_pages)});
  }
  order_table.Print();
  std::printf("Expected (§3.2/§3.3): the backward order leaves the pages "
              "adjacent to the internal area hot in the pool, so the next "
              "iteration's fill saves reads (the Δin term).\n");

  std::printf("\n(d) sampled overlap profile + cost-model residual\n");
  struct NamedConfig {
    const char* name;
    bool macro_overlap;
    bool thread_morphing;
    uint32_t num_threads;
  };
  const NamedConfig profiled[] = {
      {"opt_serial", false, false, 1},
      {"opt_full", true, true, std::max(2u, ctx.threads)},
  };
  TablePrinter overlap_table({"config", "elapsed (s)", "micro %", "macro %",
                              "morphs", "residual (s)", "overhead %"});
  bench::BenchReport report_out("ablation_overlap");
  for (const NamedConfig& named : profiled) {
    RunConfig config;
    config.m_in = budget / 2;
    config.m_ex = budget / 2;
    config.macro_overlap = named.macro_overlap;
    config.thread_morphing = named.thread_morphing;
    config.num_threads = named.num_threads;
    // Best-of-3 per variant: single runs are ~100 ms here and scheduler
    // noise swamps the profiler's real cost; the min-vs-min delta is
    // what actually measures the sampler.
    auto best_of = [&](bool profile) -> Result<RunMetrics> {
      config.profile = profile;
      Result<RunMetrics> best = RunOnce(store->get(), config);
      for (int rep = 1; rep < 3 && best.ok(); ++rep) {
        Result<RunMetrics> next = RunOnce(store->get(), config);
        if (!next.ok()) return next;
        if (next->seconds < best->seconds) best = next;
      }
      return best;
    };
    auto off = best_of(false);  // unprofiled baseline
    auto on = best_of(true);
    if (!off.ok() || !on.ok()) {
      const Status& s = off.ok() ? on.status() : off.status();
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    const OverlapReport& report = on->stats.overlap;
    overlap_table.AddRow(
        {named.name, bench::Secs(on->seconds),
         TablePrinter::Fmt(100.0 * report.MicroOverlapFraction(), 1),
         TablePrinter::Fmt(100.0 * report.MacroOverlapFraction(), 1),
         TablePrinter::Fmt(report.morph_events),
         bench::Secs(report.cost.residual_seconds),
         TablePrinter::Fmt(
             off->seconds > 0
                 ? 100.0 * (on->seconds - off->seconds) / off->seconds
                 : 0.0,
             1)});
    report_out.AddRow(OverlapRow(named.name, *off, *on));
  }
  overlap_table.Print();
  std::printf("Expected: micro overlap well above zero in both configs, "
              "macro overlap only in opt_full, and profiler overhead "
              "within noise (≤ ~2%%). The residual is measured − "
              "predicted where the prediction is the §3.3 *serial* cost "
              "Cost(ideal) + c(Δex − Δin): a negative residual is the "
              "overlap machinery beating the serial model — the win the "
              "paper claims — and a residual near zero means no "
              "overlap happened.\n");
  std::printf("\nJSON:\n%s", report_out.Render().c_str());
  // --json_out: the unified envelope (schema_version + host + PMU
  // columns), the format tools/bench_check gates on.
  return report_out.MaybeWrite(ctx) ? 0 : 1;
}
