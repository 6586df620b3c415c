#include "obs/bench_gate.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/table_printer.h"

namespace opt {

namespace {

std::string NumberToKey(double v) {
  // Integral values render without a trailing ".000000" so keys built
  // from shard counts etc. look like "shards=2".
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string RowKey(const JsonValue& row,
                   const std::vector<std::string>& key_fields, size_t index) {
  std::string key;
  for (const auto& field : key_fields) {
    const JsonValue& v = row.Get(field);
    if (v.is_null()) continue;
    if (!key.empty()) key += " ";
    key += field + "=";
    key += v.is_string() ? v.AsString() : NumberToKey(v.AsDouble());
  }
  if (key.empty()) key = "row#" + std::to_string(index);
  return key;
}

}  // namespace

std::string BenchHost::Fingerprint() const {
  if (hostname.empty()) return "";
  return hostname + "/" + std::to_string(nproc) +
         (machine.empty() ? "" : "/" + machine);
}

Result<BenchRun> ParseBenchRun(const std::string& text) {
  auto parsed = JsonValue::Parse(text);
  if (!parsed.ok()) return parsed.status();
  BenchRun run;
  const JsonValue& doc = *parsed;
  if (!doc.is_object()) {
    return Status::InvalidArgument("bench file: expected an object");
  }
  if (doc.Has("benchmarks")) {
    // google-benchmark --benchmark_format=json.
    run.experiment = "gbench";
    const JsonValue& ctx = doc.Get("context");
    run.host.hostname = ctx.Get("host_name").AsString();
    run.host.nproc = ctx.Get("num_cpus").AsInt();
    for (const JsonValue& b : doc.Get("benchmarks").items()) {
      // Skip aggregate rows (mean/median/stddev of repetitions).
      if (b.Has("run_type") && b.Get("run_type").AsString() != "iteration") {
        continue;
      }
      run.rows.push_back(b);
    }
    return run;
  }
  if (!doc.Has("schema_version")) {
    return Status::InvalidArgument(
        "bench file: neither schema_version nor google-benchmark output");
  }
  run.schema_version = static_cast<int>(doc.Get("schema_version").AsInt());
  run.experiment = doc.Get("experiment").AsString();
  run.perf_backend = doc.Get("perf_backend").AsString();
  const JsonValue& host = doc.Get("host");
  run.host.hostname = host.Get("hostname").AsString();
  run.host.nproc = host.Get("nproc").AsInt();
  run.host.machine = host.Get("machine").AsString();
  run.rows = doc.Get("rows").items();
  return run;
}

Result<BenchRun> LoadBenchFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  auto run = ParseBenchRun(buf.str());
  if (!run.ok()) {
    return Status::InvalidArgument(path + ": " + run.status().ToString());
  }
  return run;
}

GateSpec SpecForExperiment(const std::string& experiment) {
  GateSpec spec;
  if (experiment == "ablation_overlap") {
    spec.key_fields = {"config"};
    // micro_overlap is the paper's headline ratio — host-invariant by
    // construction (fraction of samples with CPU+I/O in flight).
    spec.metrics = {
        {"micro_overlap", /*higher=*/true, 0.35, 0.05, /*invariant=*/true},
        {"profiler_overhead_frac", /*higher=*/false, 1.00, 0.04,
         /*invariant=*/true},
        {"seconds", /*higher=*/false, 0.60, 0.0, /*invariant=*/false},
    };
    return spec;
  }
  if (experiment == "shard_throughput") {
    spec.key_fields = {"shards", "router_workers"};
    spec.metrics = {
        {"speedup_vs_single", /*higher=*/true, 0.25, 0.15, /*invariant=*/true},
        {"errors", /*higher=*/false, 0.0, 0.0, /*invariant=*/true},
        {"partials", /*higher=*/false, 0.0, 0.0, /*invariant=*/true},
        {"qps", /*higher=*/true, 0.60, 0.0, /*invariant=*/false},
        {"p99_latency_ms", /*higher=*/false, 1.00, 0.0, /*invariant=*/false},
    };
    return spec;
  }
  if (experiment == "service_throughput") {
    spec.key_fields = {"workers"};
    spec.metrics = {
        {"errors", /*higher=*/false, 0.0, 0.0, /*invariant=*/true},
        {"qps", /*higher=*/true, 0.60, 0.0, /*invariant=*/false},
        {"p99_latency_ms", /*higher=*/false, 1.00, 0.0, /*invariant=*/false},
    };
    return spec;
  }
  if (experiment == "gbench") {
    spec.key_fields = {"name"};
    spec.metrics = {
        {"items_per_second", /*higher=*/true, 0.60, 0.0, /*invariant=*/false},
    };
    return spec;
  }
  // Unknown experiment: gate wall time only, generously.
  spec.key_fields = {"config", "method", "name"};
  spec.metrics = {
      {"seconds", /*higher=*/false, 0.60, 0.0, /*invariant=*/false},
  };
  return spec;
}

const char* GateVerdictName(GateVerdict verdict) {
  switch (verdict) {
    case GateVerdict::kPass: return "PASS";
    case GateVerdict::kImproved: return "IMPROVED";
    case GateVerdict::kRegress: return "REGRESS";
    case GateVerdict::kMissing: return "MISSING";
    case GateVerdict::kInfo: return "INFO";
  }
  return "?";
}

Result<GateReport> CompareBenchRuns(const BenchRun& baseline,
                                    const std::vector<BenchRun>& fresh,
                                    const GateOptions& opts) {
  if (fresh.empty()) {
    return Status::InvalidArgument("bench gate: no fresh runs supplied");
  }
  GateSpec spec = SpecForExperiment(baseline.experiment);
  for (auto& m : spec.metrics) {
    auto it = opts.tolerance_override.find(m.metric);
    if (it != opts.tolerance_override.end()) m.rel_tolerance = it->second;
  }

  GateReport report;
  const std::string base_fp = baseline.host.Fingerprint();
  report.same_host = !base_fp.empty();
  for (const BenchRun& f : fresh) {
    if (f.host.Fingerprint() != base_fp) report.same_host = false;
    if (!f.experiment.empty() && !baseline.experiment.empty() &&
        f.experiment != baseline.experiment) {
      return Status::InvalidArgument("bench gate: experiment mismatch: '" +
                                     baseline.experiment + "' vs '" +
                                     f.experiment + "'");
    }
  }

  // Index fresh rows by key; every run contributes (best-of-N).
  std::map<std::string, std::vector<const JsonValue*>> fresh_by_key;
  for (const BenchRun& f : fresh) {
    for (size_t i = 0; i < f.rows.size(); ++i) {
      fresh_by_key[RowKey(f.rows[i], spec.key_fields, i)].push_back(
          &f.rows[i]);
    }
  }

  for (size_t i = 0; i < baseline.rows.size(); ++i) {
    const JsonValue& base_row = baseline.rows[i];
    const std::string key = RowKey(base_row, spec.key_fields, i);
    auto fit = fresh_by_key.find(key);
    if (fit == fresh_by_key.end()) {
      GateRowResult r;
      r.key = key;
      r.metric = "(row)";
      r.verdict = opts.allow_missing ? GateVerdict::kInfo : GateVerdict::kMissing;
      if (!opts.allow_missing) ++report.missing;
      report.rows.push_back(r);
      continue;
    }
    for (const MetricSpec& m : spec.metrics) {
      const JsonValue& bv = base_row.Get(m.metric);
      if (!bv.is_number()) continue;  // metric absent in baseline: skip
      bool have_fresh = false;
      double best = 0.0;
      for (const JsonValue* frow : fit->second) {
        const JsonValue& fv = frow->Get(m.metric);
        if (!fv.is_number()) continue;
        const double v = fv.AsDouble();
        if (!have_fresh) {
          best = v;
          have_fresh = true;
        } else {
          best = m.higher_is_better ? std::max(best, v) : std::min(best, v);
        }
      }
      GateRowResult r;
      r.key = key;
      r.metric = m.metric;
      r.baseline = bv.AsDouble();
      if (!have_fresh) {
        r.verdict =
            opts.allow_missing ? GateVerdict::kInfo : GateVerdict::kMissing;
        if (!opts.allow_missing) ++report.missing;
        report.rows.push_back(r);
        continue;
      }
      r.fresh = best;
      r.ratio = r.baseline != 0.0 ? r.fresh / r.baseline
                                  : (r.fresh == 0.0 ? 1.0 : 0.0);
      r.enforced = m.host_invariant || report.same_host || opts.strict_host;
      const double margin =
          std::max(m.rel_tolerance * std::abs(r.baseline), m.abs_tolerance);
      if (m.higher_is_better) {
        if (r.fresh < r.baseline - margin) r.verdict = GateVerdict::kRegress;
        else if (r.fresh > r.baseline + margin) r.verdict = GateVerdict::kImproved;
      } else {
        if (r.fresh > r.baseline + margin) r.verdict = GateVerdict::kRegress;
        else if (r.fresh < r.baseline - margin) r.verdict = GateVerdict::kImproved;
      }
      if (r.verdict == GateVerdict::kRegress) {
        if (r.enforced) {
          ++report.regressions;
        } else {
          // Host-dependent metric across hosts: report, don't gate.
          r.verdict = GateVerdict::kInfo;
        }
      }
      report.rows.push_back(r);
    }
  }
  return report;
}

std::string GateReport::RenderTable() const {
  TablePrinter table({"row", "metric", "baseline", "fresh", "ratio",
                      "gated", "verdict"});
  for (const auto& r : rows) {
    table.AddRow({r.key, r.metric, TablePrinter::Fmt(r.baseline, 4),
                  TablePrinter::Fmt(r.fresh, 4), TablePrinter::Fmt(r.ratio, 3),
                  r.enforced ? "yes" : "no", GateVerdictName(r.verdict)});
  }
  std::string out = table.ToString();
  out += same_host ? "hosts: matching fingerprints (all metrics gated)\n"
                   : "hosts: fingerprints differ (host-dependent metrics "
                     "informational; use --strict_host to gate them)\n";
  char line[96];
  std::snprintf(line, sizeof(line), "regressions=%d missing=%d → %s\n",
                regressions, missing, ok() ? "PASS" : "FAIL");
  out += line;
  return out;
}

}  // namespace opt
