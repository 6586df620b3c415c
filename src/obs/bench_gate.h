// Perf-regression gate over the committed BENCH_*.json baselines.
//
// tools/bench_check feeds this: a baseline file plus one or more fresh
// runs of the same experiment (best-of-N absorbs scheduler noise), a
// per-metric spec saying which direction is "better" and how much noise
// to tolerate, and a pass/regress verdict per (row, metric). Two file
// formats are understood:
//   - the unified bench schema (bench_common.h: schema_version envelope)
//   - google-benchmark --benchmark_format=json output
// Host-dependent metrics (throughput, seconds) only gate when baseline
// and fresh runs carry the same host fingerprint — CI baselines
// regenerated on a laptop must not flake the gate — while
// host-invariant metrics (overlap fraction, speedup ratios, error
// counts) always gate.
#ifndef OPT_OBS_BENCH_GATE_H_
#define OPT_OBS_BENCH_GATE_H_

#include <map>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/status.h"

namespace opt {

struct BenchHost {
  std::string hostname;
  int64_t nproc = 0;
  std::string machine;

  /// Empty when the file carried no host name.
  std::string Fingerprint() const;
};

struct BenchRun {
  int schema_version = 0;  // 0 = google-benchmark
  std::string experiment;  // "gbench" for google-benchmark files
  BenchHost host;
  std::string perf_backend;
  std::vector<JsonValue> rows;  // one object per bench row
};

Result<BenchRun> ParseBenchRun(const std::string& text);
Result<BenchRun> LoadBenchFile(const std::string& path);

struct MetricSpec {
  std::string metric;
  bool higher_is_better = true;
  /// Allowed regression as a fraction of the baseline value; the
  /// effective margin is max(rel * |baseline|, abs).
  double rel_tolerance = 0.5;
  double abs_tolerance = 0.0;
  /// Gate even when baseline and fresh hosts differ (ratios, counts).
  bool host_invariant = false;
};

struct GateSpec {
  /// Row identity; rows are matched across runs on these fields.
  std::vector<std::string> key_fields;
  std::vector<MetricSpec> metrics;
};

/// Built-in specs for the repo's experiments; unknown experiments get a
/// conservative seconds-only spec when rows carry a "seconds" field.
GateSpec SpecForExperiment(const std::string& experiment);

enum class GateVerdict { kPass, kImproved, kRegress, kMissing, kInfo };
const char* GateVerdictName(GateVerdict verdict);

struct GateRowResult {
  std::string key;
  std::string metric;
  double baseline = 0.0;
  double fresh = 0.0;
  double ratio = 0.0;  // fresh / baseline
  bool enforced = true;
  GateVerdict verdict = GateVerdict::kPass;
};

struct GateReport {
  std::vector<GateRowResult> rows;
  bool same_host = true;
  int regressions = 0;
  int missing = 0;

  bool ok() const { return regressions == 0 && missing == 0; }
  std::string RenderTable() const;
};

struct GateOptions {
  /// Enforce host-dependent metrics even across differing hosts.
  bool strict_host = false;
  /// Rows present in the baseline but absent from every fresh run are
  /// normally failures; allow them (verdict kInfo) when set.
  bool allow_missing = false;
  /// metric name → relative tolerance, overriding the built-in spec.
  std::map<std::string, double> tolerance_override;
};

/// Compares fresh runs against the baseline. Best-of-N: for each
/// (row, metric) the most favorable fresh value across all runs is the
/// one judged, so a single noisy run cannot flake the gate.
Result<GateReport> CompareBenchRuns(const BenchRun& baseline,
                                    const std::vector<BenchRun>& fresh,
                                    const GateOptions& opts);

}  // namespace opt

#endif  // OPT_OBS_BENCH_GATE_H_
