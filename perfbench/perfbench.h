// Shared declarations of the repository benchmark (see README.md).
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Emulated per-page read latency of every workload (the bench default of
/// the repository's bench binaries).
inline constexpr uint32_t kReadLatencyMicros = 30;
inline constexpr uint32_t kPageSize = 4096;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Working directory for stores, listings and the service socket.
  std::string work_dir = ".bench_build/perfbench-work";
  /// Chrome-trace output of a traced run (empty: <work_dir>/trace.json).
  std::string trace_out;
  /// Test hook: added to every expected triangle count, so a correct
  /// program must fail the oracle check.
  int64_t perturb_expected = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload run hands back to main().
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// First few failures, printed to stderr.
  std::vector<std::string> failures;
  /// The result object's metrics (end-to-end untraced, per-layer traced)
  /// by name. A traced run holds only the layers the workload has; run.py
  /// adds units and order from BENCHMARK.json.
  std::map<std::string, double> values;
  /// Printed for reading, not gated (sample counts, workload-specific
  /// layer numbers).
  std::vector<Metric> info;
  /// Graph sizes and other provenance, as "key": value JSON members.
  std::vector<std::pair<std::string, std::string>> provenance;

  void Fail(std::string what);
};

opt::Result<Outcome> RunTwitterOocCount(const Args& args);
opt::Result<Outcome> RunHkIncoreList(const Args& args);
opt::Result<Outcome> RunServiceMixed(const Args& args);

// ---- small shared helpers ----

/// Untraced runs repeat set-up at least this often and this long, so a
/// cheap set-up is measured often enough for a steady median.
inline constexpr int kMinSetups = 3;
inline constexpr double kMinSetupSeconds = 2.0;

double Median(std::vector<double> values);

/// Runs `setup` (a callable returning opt::Status) kMinSetups times and
/// for at least kMinSetupSeconds, or once in a traced run, and
/// returns the median seconds of one set-up. The last set-up's state is
/// the one the workload uses.
template <typename Setup>
opt::Result<double> TimeSetups(const Args& args, Setup&& setup) {
  std::vector<double> seconds;
  const int runs = args.trace ? 1 : kMinSetups;
  const auto begin = Clock::now();
  while (static_cast<int>(seconds.size()) < runs ||
         (!args.trace &&
          SecondsBetween(begin, Clock::now()) < kMinSetupSeconds)) {
    const auto start = Clock::now();
    OPT_RETURN_IF_ERROR(setup());
    seconds.push_back(SecondsBetween(start, Clock::now()));
  }
  return Median(std::move(seconds));
}

/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);
/// Peak resident set size of this process in MiB.
double PeakRssMb();
/// Online CPUs of this host.
uint32_t HostCpus();

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
