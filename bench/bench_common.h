// Shared plumbing for the experiment binaries (one per paper table or
// figure). Every binary accepts:
//   --scale_shift N   shrink datasets by 2^N (default kDefaultShift —
//                     sized so each binary finishes in seconds on CI)
//   --read_us  N      emulated FlashSSD per-page read latency (µs)
//   --write_us N      emulated per-page write latency (µs)
//   --threads  N      worker threads for parallel methods
//   --work_dir PATH   where graph stores are materialized
//   --kernel   K      pairwise intersection kernel of the in-memory
//                     passes: scalar|avx2|auto
//                     (default auto). Binaries with such passes install
//                     it in an IntersectScope on their main thread; OPT
//                     and the harness methods intersect by
//                     mark-and-probe and select no kernel.
// The latency injection stands in for the paper's direct-I/O FlashSSD:
// it makes I/O cost proportional to pages touched even when the OS page
// cache would otherwise hide it (DESIGN.md §3).
#ifndef OPT_BENCH_BENCH_COMMON_H_
#define OPT_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <sys/stat.h>
#include <sys/utsname.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/opt_runner.h"
#include "graph/intersect.h"
#include "harness/datasets.h"
#include "harness/methods.h"
#include "obs/perf_counters.h"
#include "storage/env.h"
#include "util/cli.h"
#include "util/logging.h"
#include "util/table_printer.h"

namespace opt {
namespace bench {

inline constexpr int kDefaultShift = 2;
inline constexpr uint32_t kDefaultReadMicros = 30;
inline constexpr uint32_t kDefaultWriteMicros = 60;
inline constexpr uint32_t kPageSize = 4096;

struct BenchContext {
  std::unique_ptr<ThrottledEnv> env;
  std::string work_dir;
  int scale_shift = kDefaultShift;
  uint32_t threads = 2;
  /// Set when --kernel was passed (already checked against the CPU).
  std::optional<IntersectKernel> kernel;
  /// --json_out PATH: where the unified bench report goes ("" = none).
  std::string json_out;

  Env* get_env() { return env.get(); }
};

inline BenchContext MakeContext(int argc, char** argv) {
  InitLogLevelFromEnv();
  BenchContext ctx;
  auto cl = CommandLine::Parse(argc, argv);
  if (!cl.ok()) {
    std::fprintf(stderr, "%s\n", cl.status().ToString().c_str());
    std::exit(2);
  }
  ctx.scale_shift =
      static_cast<int>(cl->GetInt("scale_shift", kDefaultShift));
  const auto read_us = static_cast<uint32_t>(
      cl->GetInt("read_us", kDefaultReadMicros));
  const auto write_us = static_cast<uint32_t>(
      cl->GetInt("write_us", kDefaultWriteMicros));
  ctx.threads = static_cast<uint32_t>(cl->GetInt("threads", 2));
  ctx.work_dir = cl->GetString("work_dir", "/tmp/opt_bench");
  ctx.json_out = cl->GetString("json_out", "");
  ::mkdir(ctx.work_dir.c_str(), 0755);
  ctx.env = std::make_unique<ThrottledEnv>(Env::Default(), read_us,
                                           write_us);
  if (cl->Has("kernel")) {
    auto parsed = ParseIntersectKernel(cl->GetString("kernel", "auto"));
    if (parsed.ok()) parsed = ResolveIntersectKernel(*parsed);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      std::exit(2);
    }
    ctx.kernel = *parsed;
  }
  return ctx;
}

/// Prints per-kernel intersection throughput from a counter delta — the
/// kernel-level view the SIMD ablation reads (`--kernel` to force one).
inline void PrintKernelCounters(const char* tag,
                                const IntersectCounters& delta,
                                double seconds) {
  for (int k = 0; k < kNumIntersectKernels; ++k) {
    if (delta.calls[k] == 0) continue;
    const double elems = static_cast<double>(delta.elements[k]);
    std::printf(
        "  [%s] kernel=%s calls=%llu elements=%llu (%.1f Melem/s, "
        "%.1f MB/s)\n",
        tag, IntersectKernelName(static_cast<IntersectKernel>(k)),
        static_cast<unsigned long long>(delta.calls[k]),
        static_cast<unsigned long long>(delta.elements[k]),
        seconds > 0 ? elems / seconds * 1e-6 : 0.0,
        seconds > 0 ? elems * sizeof(VertexId) / seconds * 1e-6 : 0.0);
  }
}

/// Prints the standard experiment banner.
inline void Banner(const char* experiment, const char* description) {
  std::printf("=== %s ===\n%s\n", experiment, description);
}

inline std::string Secs(double s) { return TablePrinter::Fmt(s, 3); }

// ---------------------------------------------------------------------
// Unified bench JSON (DESIGN.md §13). Every bench that honors
// --json_out emits the same versioned envelope so tools/bench_check can
// diff any fresh run against any committed BENCH_*.json baseline:
//   { "schema_version": 1, "experiment": "...",
//     "host": {hostname, nproc, machine, kernel},
//     "perf_backend": "...", "rows": [ {...}, ... ] }
// Bump kBenchSchemaVersion on any incompatible envelope change.
// ---------------------------------------------------------------------

inline constexpr int kBenchSchemaVersion = 1;

/// Insertion-ordered JSON object builder (keys are trusted literals;
/// string *values* are escaped).
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, const std::string& v) {
    Key(key);
    body_ += '"';
    for (char c : v) {
      switch (c) {
        case '"': body_ += "\\\""; break;
        case '\\': body_ += "\\\\"; break;
        case '\n': body_ += "\\n"; break;
        case '\t': body_ += "\\t"; break;
        case '\r': body_ += "\\r"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            body_ += buf;
          } else {
            body_ += c;
          }
      }
    }
    body_ += '"';
    return *this;
  }
  JsonObject& Add(const std::string& key, const char* v) {
    return Add(key, std::string(v));
  }
  JsonObject& Add(const std::string& key, double v, int precision = 6) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    Key(key);
    body_ += buf;
    return *this;
  }
  JsonObject& Add(const std::string& key, uint64_t v) {
    Key(key);
    body_ += std::to_string(v);
    return *this;
  }
  JsonObject& Add(const std::string& key, int64_t v) {
    Key(key);
    body_ += std::to_string(v);
    return *this;
  }
  JsonObject& Add(const std::string& key, uint32_t v) {
    return Add(key, static_cast<uint64_t>(v));
  }
  JsonObject& Add(const std::string& key, int v) {
    return Add(key, static_cast<int64_t>(v));
  }
  JsonObject& Add(const std::string& key, bool v) {
    Key(key);
    body_ += v ? "true" : "false";
    return *this;
  }
  /// Pre-rendered JSON (nested objects/arrays).
  JsonObject& AddRaw(const std::string& key, const std::string& json) {
    Key(key);
    body_ += json;
    return *this;
  }
  std::string Render() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key) {
    if (!body_.empty()) body_ += ",";
    body_ += '"';
    body_ += key;
    body_ += "\":";
  }
  std::string body_;
};

/// The fingerprint bench_check uses to decide whether host-dependent
/// metrics (seconds, qps) may gate or are informational only.
inline JsonObject HostInfoJson() {
  JsonObject host;
  char hostname[256] = {0};
  if (::gethostname(hostname, sizeof(hostname) - 1) != 0) hostname[0] = '\0';
  host.Add("hostname", hostname);
  host.Add("nproc",
           static_cast<uint64_t>(std::thread::hardware_concurrency()));
  utsname u{};
  if (::uname(&u) == 0) {
    host.Add("machine", u.machine);
    host.Add("kernel", u.release);
  }
  return host;
}

/// Adds the PMU columns to a bench row when the active backend delivers
/// them — absent columns mean "not counted here", never "zero cost".
inline void AddPerfColumns(JsonObject* row, const PerfReading& d) {
  if (ActivePerfBackend() == PerfBackend::kNone) return;
  row->Add("task_clock_ms",
           static_cast<double>(d.task_clock_ns) * 1e-6, 3);
  if (d.cycles > 0) {
    row->Add("cycles", d.cycles);
    row->Add("ipc", d.Ipc(), 3);
  }
  if (d.instructions > 0) row->Add("instructions", d.instructions);
  if (d.llc_loads > 0) {
    row->Add("llc_loads", d.llc_loads);
    row->Add("llc_misses", d.llc_misses);
  }
  if (d.branch_misses > 0) row->Add("branch_misses", d.branch_misses);
  if (d.time_enabled_ns > 0) {
    row->Add("perf_multiplex", d.MultiplexRatio(), 4);
  }
}

class BenchReport {
 public:
  explicit BenchReport(std::string experiment)
      : experiment_(std::move(experiment)) {}

  void AddRow(const JsonObject& row) { rows_.push_back(row.Render()); }
  size_t num_rows() const { return rows_.size(); }

  std::string Render() const {
    std::string out = "{\n";
    out += "  \"schema_version\": " + std::to_string(kBenchSchemaVersion) +
           ",\n";
    out += "  \"experiment\": \"" + experiment_ + "\",\n";
    out += "  \"host\": " + HostInfoJson().Render() + ",\n";
    out += "  \"perf_backend\": \"";
    out += PerfBackendName(ActivePerfBackend());
    out += "\",\n  \"rows\": [\n";
    for (size_t i = 0; i < rows_.size(); ++i) {
      out += "    " + rows_[i];
      if (i + 1 < rows_.size()) out += ",";
      out += "\n";
    }
    out += "  ]\n}\n";
    return out;
  }

  bool WriteTo(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    out << Render();
    std::printf("wrote %s (%zu rows, experiment=%s)\n", path.c_str(),
                rows_.size(), experiment_.c_str());
    return true;
  }

  /// Honors BenchContext::json_out; true unless a requested write failed.
  bool MaybeWrite(const BenchContext& ctx) const {
    return ctx.json_out.empty() ? true : WriteTo(ctx.json_out);
  }

 private:
  std::string experiment_;
  std::vector<std::string> rows_;
};

}  // namespace bench
}  // namespace opt

#endif  // OPT_BENCH_BENCH_COMMON_H_
