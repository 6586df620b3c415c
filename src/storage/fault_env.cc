#include "storage/fault_env.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <thread>

#include "util/metrics.h"

namespace opt {

namespace {

/// SplitMix64 finalizer — a pure, well-mixed hash of the fault inputs.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t HashPath(const std::string& path) {
  // FNV-1a: stable across runs (std::hash is not guaranteed to be).
  uint64_t h = 1469598103934665603ULL;
  for (const char c : path) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Location key for (seed, path, offset, salt): the unit of fault
/// determinism. Distinct salts keep the error / torn / latency streams
/// independent of each other.
uint64_t LocationKey(uint64_t seed, uint64_t path_hash, uint64_t offset,
                     uint64_t salt) {
  return Mix64(Mix64(seed ^ salt) ^ Mix64(path_hash) ^ Mix64(offset));
}

/// Deterministic Bernoulli draw from a location key.
bool Decide(uint64_t key, double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return static_cast<double>(Mix64(key) >> 11) * 0x1.0p-53 < p;
}

constexpr uint64_t kErrorSalt = 0x5245414445525221ULL;
constexpr uint64_t kTornSalt = 0x544F524E52454144ULL;
constexpr uint64_t kLatencySalt = 0x4C4154454E435921ULL;

struct FaultCounters {
  Counter* read_errors = Metrics().GetCounter("fault.read_errors");
  Counter* torn_reads = Metrics().GetCounter("fault.torn_reads");
  Counter* latency = Metrics().GetCounter("fault.latency_spikes");
  Counter* write_errors = Metrics().GetCounter("fault.write_errors");
};

FaultCounters& GlobalFaultCounters() {
  static FaultCounters counters;
  return counters;
}

Status ParseError(const std::string& detail) {
  return Status::InvalidArgument("bad fault plan: " + detail);
}

}  // namespace

Result<FaultPlan> FaultPlan::Parse(const std::string& spec) {
  FaultPlan plan;
  std::stringstream stream(spec);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (item.empty()) continue;
    const size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      return ParseError("expected key=value, got '" + item + "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "path_filter") {
      plan.path_filter = value;
      continue;
    }
    char* end = nullptr;
    errno = 0;
    const auto consumed = [&] {
      return errno == 0 && end != value.c_str() && *end == '\0';
    };
    if (key == "read_error_p" || key == "torn_read_p" ||
        key == "latency_p") {
      const double p = std::strtod(value.c_str(), &end);
      if (!consumed()) {
        return ParseError("non-numeric value for '" + key + "': " + value);
      }
      if (key == "read_error_p") {
        plan.read_error_p = p;
      } else if (key == "torn_read_p") {
        plan.torn_read_p = p;
      } else {
        plan.latency_p = p;
      }
    } else if (key == "fail_reads_after") {
      const long long n = std::strtoll(value.c_str(), &end, 10);
      if (!consumed()) {
        return ParseError("non-numeric value for '" + key + "': " + value);
      }
      plan.fail_reads_after = n;
    } else {
      // Unsigned integer keys. Full 64-bit precision matters: a strtod
      // round-trip would silently change seeds above 2^53, and strtoull
      // happily wraps "-1", so the sign is rejected up front.
      if (!value.empty() && (value[0] == '-' || value[0] == '+')) {
        return ParseError("'" + key + "' must be a non-negative integer, "
                          "got " + value);
      }
      const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
      if (!consumed()) {
        return ParseError("non-numeric value for '" + key + "': " + value);
      }
      if (key == "seed") {
        plan.seed = n;
      } else if (key == "transient") {
        if (n > UINT32_MAX) return ParseError("'transient' out of range");
        plan.transient = static_cast<uint32_t>(n);
      } else if (key == "latency_us") {
        if (n > UINT32_MAX) return ParseError("'latency_us' out of range");
        plan.latency_us = static_cast<uint32_t>(n);
      } else if (key == "write_fail_after") {
        plan.write_fail_after = n;
      } else if (key == "silent_write_loss") {
        plan.silent_write_loss = n != 0;
      } else {
        return ParseError("unknown key '" + key + "'");
      }
    }
  }
  for (const double p :
       {plan.read_error_p, plan.torn_read_p, plan.latency_p}) {
    if (p < 0 || p > 1) return ParseError("probability out of [0,1]");
  }
  return plan;
}

std::string FaultPlan::ToString() const {
  std::ostringstream out;
  // max_digits10 makes the probability round-trip exact: a fuzzed plan's
  // printed repro line must Parse() back to the identical plan.
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "seed=" << seed;
  const auto put_p = [&out](const char* key, double p) {
    if (p > 0) out << ',' << key << '=' << p;
  };
  put_p("read_error_p", read_error_p);
  if (transient != 1) out << ",transient=" << transient;
  put_p("torn_read_p", torn_read_p);
  put_p("latency_p", latency_p);
  if (latency_p > 0 && latency_us != 2000) {
    out << ",latency_us=" << latency_us;
  }
  if (fail_reads_after >= 0) {
    out << ",fail_reads_after=" << fail_reads_after;
  }
  if (write_fail_after != kNoWriteFault) {
    out << ",write_fail_after=" << write_fail_after;
  }
  if (silent_write_loss) out << ",silent_write_loss=1";
  if (!path_filter.empty()) out << ",path_filter=" << path_filter;
  return out.str();
}

namespace {

class FaultInjectingFile : public RandomAccessFile {
 public:
  FaultInjectingFile(std::unique_ptr<RandomAccessFile> base,
                     FaultInjectingEnv* env, std::string path)
      : base_(std::move(base)), env_(env), path_(std::move(path)),
        path_hash_(HashPath(path_)), faultable_(env->PathFaultable(path_)) {}

  Status Read(uint64_t offset, size_t n, char* dst) const override {
    char* const dsts[1] = {dst};
    return ReadV(offset, n, dsts);
  }

  /// Every decision is made per n-byte block at that block's own offset,
  /// with the same keys a single-block Read of it uses, so a plan faults
  /// the inner pages of a run exactly as it faults them one by one. The
  /// block size comes from the caller: tests use 256-byte pages.
  Status ReadV(uint64_t offset, size_t n,
               std::span<char* const> dsts) const override {
    FaultStats& stats = env_->stats();
    stats.reads.fetch_add(1, std::memory_order_relaxed);
    if (!faultable_) return base_->ReadV(offset, n, dsts);
    const uint64_t op = env_->NextReadOp();
    if (!env_->enabled()) return base_->ReadV(offset, n, dsts);
    const FaultPlan& plan = env_->plan();

    if (plan.fail_reads_after >= 0 &&
        static_cast<int64_t>(op) >= plan.fail_reads_after) {
      stats.injected_read_errors.fetch_add(1, std::memory_order_relaxed);
      GlobalFaultCounters().read_errors->Increment();
      return Status::IOError("injected fault at read op #" +
                             std::to_string(op) + " (fault plan " +
                             plan.ToString() + ")");
    }

    // Blocks are reached in order, and the command fails at the first
    // faulted one: blocks past it are never attempted.
    for (size_t i = 0; i < dsts.size(); ++i) {
      const uint64_t block = offset + i * n;
      const uint64_t latency_key =
          LocationKey(plan.seed, path_hash_, block, kLatencySalt);
      if (Decide(latency_key, plan.latency_p)) {
        stats.injected_latency.fetch_add(1, std::memory_order_relaxed);
        GlobalFaultCounters().latency->Increment();
        std::this_thread::sleep_for(
            std::chrono::microseconds(plan.latency_us));
      }

      const uint64_t error_key =
          LocationKey(plan.seed, path_hash_, block, kErrorSalt);
      if (Decide(error_key, plan.read_error_p)) {
        const uint32_t attempt = env_->NextAttempt(error_key);
        if (plan.transient == 0 || attempt <= plan.transient) {
          stats.injected_read_errors.fetch_add(1, std::memory_order_relaxed);
          GlobalFaultCounters().read_errors->Increment();
          return Status::IOError(
              "injected " +
              std::string(plan.transient == 0 ? "persistent" : "transient") +
              " fault at " + path_ + " offset " + std::to_string(block) +
              " attempt " + std::to_string(attempt) + " (fault plan " +
              plan.ToString() + ")");
        }
      }
    }

    OPT_RETURN_IF_ERROR(base_->ReadV(offset, n, dsts));

    for (size_t i = 0; i < dsts.size(); ++i) {
      const uint64_t torn_key =
          LocationKey(plan.seed, path_hash_, offset + i * n, kTornSalt);
      if (!Decide(torn_key, plan.torn_read_p)) continue;
      const uint32_t attempt = env_->NextAttempt(torn_key);
      if (plan.transient != 0 && attempt > plan.transient) continue;
      stats.injected_torn_reads.fetch_add(1, std::memory_order_relaxed);
      GlobalFaultCounters().torn_reads->Increment();
      // Garble the block's tail quarter deterministically: a torn read
      // that "succeeded" at the syscall layer but whose trailing sectors
      // never made it. Page CRC validation is what must catch this.
      const size_t torn = std::max<size_t>(1, n / 4);
      uint64_t noise = Mix64(torn_key ^ attempt);
      for (size_t b = n - torn; b < n; ++b) {
        noise = Mix64(noise);
        dsts[i][b] = static_cast<char>(noise & 0xFF);
      }
    }
    return Status::OK();
  }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  FaultInjectingEnv* const env_;
  const std::string path_;
  const uint64_t path_hash_;
  const bool faultable_;
};

class FaultInjectingWritableFile : public WritableFile {
 public:
  FaultInjectingWritableFile(std::unique_ptr<WritableFile> base,
                             FaultInjectingEnv* env, std::string path)
      : base_(std::move(base)), env_(env), path_(std::move(path)),
        faultable_(env->PathFaultable(path_)) {}

  Status Append(Slice data) override {
    FaultStats& stats = env_->stats();
    stats.writes.fetch_add(1, std::memory_order_relaxed);
    const FaultPlan& plan = env_->plan();
    if (!env_->enabled() || !faultable_ ||
        plan.write_fail_after == kNoWriteFault) {
      env_->AdvanceAppended(data.size());
      return base_->Append(data);
    }
    const uint64_t start = env_->AdvanceAppended(data.size());
    const uint64_t limit = plan.write_fail_after;
    if (start + data.size() <= limit) return base_->Append(data);
    // The tear: write only the prefix that "made it to disk" before the
    // simulated crash/device error, drop the rest.
    const size_t keep =
        start >= limit ? 0 : static_cast<size_t>(limit - start);
    if (keep > 0) {
      OPT_RETURN_IF_ERROR(base_->Append(Slice(data.data(), keep)));
    }
    stats.write_bytes_lost.fetch_add(data.size() - keep,
                                     std::memory_order_relaxed);
    stats.injected_write_errors.fetch_add(1, std::memory_order_relaxed);
    GlobalFaultCounters().write_errors->Increment();
    if (plan.silent_write_loss) return Status::OK();
    return Status::IOError("injected write fault at " + path_ +
                           " after " + std::to_string(limit) +
                           " bytes (fault plan " + plan.ToString() + ")");
  }

  Status Sync() override { return base_->Sync(); }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  FaultInjectingEnv* const env_;
  const std::string path_;
  const bool faultable_;
};

}  // namespace

FaultInjectingEnv::FaultInjectingEnv(Env* base, FaultPlan plan)
    : base_(base), plan_(std::move(plan)) {}

FaultInjectingEnv::~FaultInjectingEnv() = default;

bool FaultInjectingEnv::PathFaultable(const std::string& path) const {
  return plan_.path_filter.empty() ||
         path.find(plan_.path_filter) != std::string::npos;
}

uint32_t FaultInjectingEnv::NextAttempt(uint64_t location_key) {
  std::lock_guard<std::mutex> lock(attempts_mutex_);
  return ++attempts_[location_key];
}

void FaultInjectingEnv::ResetAttempts() {
  std::lock_guard<std::mutex> lock(attempts_mutex_);
  attempts_.clear();
}

Result<std::unique_ptr<RandomAccessFile>>
FaultInjectingEnv::OpenRandomAccess(const std::string& path) {
  OPT_ASSIGN_OR_RETURN(auto file, base_->OpenRandomAccess(path));
  return std::unique_ptr<RandomAccessFile>(
      new FaultInjectingFile(std::move(file), this, path));
}

Result<std::unique_ptr<WritableFile>> FaultInjectingEnv::OpenWritable(
    const std::string& path) {
  OPT_ASSIGN_OR_RETURN(auto file, base_->OpenWritable(path));
  return std::unique_ptr<WritableFile>(
      new FaultInjectingWritableFile(std::move(file), this, path));
}

Result<uint64_t> FaultInjectingEnv::FileSize(const std::string& path) {
  return base_->FileSize(path);
}

bool FaultInjectingEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Status FaultInjectingEnv::DeleteFile(const std::string& path) {
  return base_->DeleteFile(path);
}

}  // namespace opt
