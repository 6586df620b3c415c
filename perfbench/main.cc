// perfbench: the repository benchmark.
//
//   perfbench --workload <twitter-ooc-count|hk-incore-list|service-mixed>
//             --seed N --seconds S --trace 0|1
//             [--work_dir D] [--trace_out F] [--perturb_expected N]
//
// Prints human-readable lines (provenance, informational metrics), then,
// as the last line of stdout, one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"values":{name:value}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics the
// workload measures (--trace 1). run.py adds the units and order from
// BENCHMARK.json. Exits 1 when any answer disagrees with the oracle.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "obs/perf_counters.h"
#include "perfbench.h"
#include "util/trace.h"

namespace perfbench {

void Outcome::Fail(std::string what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(std::move(what));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * (values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

uint32_t HostCpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<uint32_t>(n) : 1;
}

namespace {

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 [--work_dir D] [--trace_out F] "
               "[--perturb_expected N]\n",
               error.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--work_dir") {
        args.work_dir = value;
      } else if (flag == "--trace_out") {
        args.trace_out = value;
      } else if (flag == "--perturb_expected") {
        args.perturb_expected = std::stoll(value);
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  return args;
}

std::string Num(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);

  opt::Result<Outcome> (*run)(const Args&) = nullptr;
  if (args.workload == "twitter-ooc-count") {
    run = RunTwitterOocCount;
  } else if (args.workload == "hk-incore-list") {
    run = RunHkIncoreList;
  } else if (args.workload == "service-mixed") {
    run = RunServiceMixed;
  } else {
    Usage("unknown workload " + args.workload);
  }

  const uint32_t cpus = HostCpus();
  if (cpus < 4) {
    std::fprintf(stderr,
                 "perfbench: WARNING nproc=%u < 4; the workloads use 4 "
                 "threads, so parallelism numbers from this host carry no "
                 "claims\n",
                 cpus);
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", args.work_dir.c_str());
    return 1;
  }

  opt::Result<Outcome> result = run(args);
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 result.status().ToString().c_str());
    return 1;
  }
  const Outcome& out = *result;

  std::string provenance =
      "{\"workload\":\"" + args.workload + "\",\"seed\":" +
      std::to_string(args.seed) + ",\"seconds\":" + Num(args.seconds) +
      ",\"trace\":" + (args.trace ? "1" : "0") +
      ",\"nproc\":" + std::to_string(cpus) + ",\"perf_backend\":\"" +
      opt::PerfBackendName(opt::ActivePerfBackend()) +
      "\",\"build_type\":\"" PERFBENCH_BUILD_TYPE
      "\",\"read_latency_us\":" + std::to_string(kReadLatencyMicros);
  for (const auto& [key, value] : out.provenance) {
    provenance += ",\"" + key + "\":" + value;
  }
  provenance += "}";
  std::printf("provenance %s\n", provenance.c_str());
  for (const Metric& m : out.info) {
    std::printf("info %s = %s %s\n", m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str());
  }
  const double fail_ratio =
      out.attempted == 0 ? 1.0 : static_cast<double>(out.failed) / out.attempted;
  std::printf("info fail_ratio = %s ratio (%llu of %llu)\n",
              Num(fail_ratio).c_str(),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const std::string& failure : out.failures) {
    std::fprintf(stderr, "perfbench: WRONG ANSWER %s\n", failure.c_str());
  }

  std::string values;
  for (const auto& [name, value] : out.values) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: metric %s not measured\n", name.c_str());
      return 1;
    }
    if (!values.empty()) values += ',';
    values += "\"" + name + "\":" + Num(value);
  }
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"values\":{%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), values.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
