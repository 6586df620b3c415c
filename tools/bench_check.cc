// bench_check: the perf-regression gate (DESIGN.md §13).
//
//   bench_check --baseline BENCH_overlap.json --fresh run1.json
//               [run2.json ...] [--strict_host] [--allow_missing]
//               [--tolerance metric=0.4,other=0.1]
//
// Compares one or more fresh bench runs against a committed baseline
// and prints a per-(row, metric) pass/regress table. Multiple --fresh
// files implement best-of-N: the most favorable fresh value per metric
// is judged, so one noisy run cannot flake CI. Exit codes: 0 pass,
// 1 regression/missing rows, 2 usage or parse error.
//
// Baselines may be in the unified schema (bench_common.h) or
// google-benchmark JSON — the format is auto-detected. Host-dependent
// metrics (seconds, qps) gate only when the two runs carry the same
// host fingerprint, unless --strict_host forces them.
#include <cstdio>
#include <string>
#include <vector>

#include "obs/bench_gate.h"
#include "util/cli.h"
#include "util/logging.h"

namespace opt {
namespace {

int Usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s --baseline FILE --fresh FILE [--fresh FILE ...]\n"
               "          [--strict_host] [--allow_missing]\n"
               "          [--tolerance metric=rel,metric=rel]\n",
               program);
  return 2;
}

int Main(int argc, char** argv) {
  InitLogLevelFromEnv();
  auto cl = CommandLine::Parse(argc, argv);
  if (!cl.ok()) {
    std::fprintf(stderr, "%s\n", cl.status().ToString().c_str());
    return 2;
  }
  const std::string baseline_path = cl->GetString("baseline", "");
  if (baseline_path.empty()) return Usage(cl->program().c_str());

  // CommandLine keeps the last value of a repeated flag, so fresh runs
  // are passed as --fresh plus positionals for N > 1.
  std::vector<std::string> fresh_paths;
  if (cl->Has("fresh")) fresh_paths.push_back(cl->GetString("fresh", ""));
  for (const std::string& p : cl->positional()) fresh_paths.push_back(p);
  if (fresh_paths.empty()) return Usage(cl->program().c_str());

  GateOptions opts;
  opts.strict_host = cl->GetBool("strict_host", false);
  opts.allow_missing = cl->GetBool("allow_missing", false);
  // --tolerance metric=rel[,metric=rel...]
  std::string tol = cl->GetString("tolerance", "");
  while (!tol.empty()) {
    const size_t comma = tol.find(',');
    const std::string item = tol.substr(0, comma);
    tol = comma == std::string::npos ? "" : tol.substr(comma + 1);
    const size_t eq = item.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "bad --tolerance entry '%s'\n", item.c_str());
      return 2;
    }
    opts.tolerance_override[item.substr(0, eq)] =
        std::stod(item.substr(eq + 1));
  }

  auto baseline = LoadBenchFile(baseline_path);
  if (!baseline.ok()) {
    std::fprintf(stderr, "%s\n", baseline.status().ToString().c_str());
    return 2;
  }
  std::vector<BenchRun> fresh;
  for (const std::string& path : fresh_paths) {
    auto run = LoadBenchFile(path);
    if (!run.ok()) {
      std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
      return 2;
    }
    fresh.push_back(std::move(*run));
  }

  auto report = CompareBenchRuns(*baseline, fresh, opts);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 2;
  }
  std::printf("baseline: %s (experiment=%s, %zu rows)\n",
              baseline_path.c_str(), baseline->experiment.c_str(),
              baseline->rows.size());
  std::printf("fresh:    %zu run%s (best-of-%zu)\n", fresh.size(),
              fresh.size() == 1 ? "" : "s", fresh.size());
  std::printf("%s", report->RenderTable().c_str());
  return report->ok() ? 0 : 1;
}

}  // namespace
}  // namespace opt

int main(int argc, char** argv) { return opt::Main(argc, argv); }
