// Deterministic fault injection for the storage spine. A FaultPlan is a
// seeded, reproducible description of how the device should misbehave:
// which read locations fail (transiently or persistently), which reads
// come back torn (buffer tail garbage — caught by page CRCs), where
// latency spikes land, and at what byte the next build's writes tear
// (crash simulation). FaultInjectingEnv decorates any Env with a plan.
//
// Determinism is the point: fault decisions are a pure hash of
// (plan seed, file path, byte offset), never of wall-clock or thread
// interleaving, so a failing chaos/soak run reproduces from one line:
//
//   opt_server --fault-plan "seed=42,read_error_p=0.02,transient=1"
//
// Transient faults fail the first `transient` attempts at a location and
// then heal, which is what exercises the async-I/O retry path end to
// end; persistent faults (`transient=0`) never heal, which is what
// exercises MarkFailed propagation and the scheduler's typed
// Unavailable degradation.
#ifndef OPT_STORAGE_FAULT_ENV_H_
#define OPT_STORAGE_FAULT_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "storage/env.h"
#include "util/status.h"

namespace opt {

constexpr uint64_t kNoWriteFault = ~0ull;

/// Seeded, deterministic fault schedule. Parse()/ToString() round-trip
/// through the comma-separated `k=v` spec the tools accept, so any
/// failing run prints a one-line repro.
struct FaultPlan {
  uint64_t seed = 1;

  /// Per-location read fault probability. A "location" is (path, offset)
  /// of one read block: a whole Read, or one page of a vectored ReadV.
  /// Whether it faults is a pure function of (seed, path, offset).
  double read_error_p = 0;
  /// How many attempts fail at a faulted location before reads heal.
  /// 0 means persistent: every attempt fails forever.
  uint32_t transient = 1;
  /// Torn reads: the read reports OK but the tail of the buffer is
  /// deterministic garbage. Only meaningful for consumers that validate
  /// checksums (page CRCs); with validation off torn data flows through.
  double torn_read_p = 0;
  /// Latency spikes: the read sleeps `latency_us` first.
  double latency_p = 0;
  uint32_t latency_us = 2000;
  /// Global op trigger: read ops with index >= this fail persistently.
  /// Ops are the Read/ReadV calls on faultable files (see path_filter),
  /// numbered from 0 in the order they reach the env since its
  /// construction, whether or not injection was enabled at the time.
  int64_t fail_reads_after = -1;
  /// Crash simulation for builds: once this many bytes have been
  /// appended (across all writable files of the env), the write stream
  /// tears — the failing append lands only partially.
  uint64_t write_fail_after = kNoWriteFault;
  /// Torn-write mode: true reports OK for torn/lost appends (the
  /// process believes the data landed — a power-loss crash); false
  /// surfaces IOError from the tear onward (a clean device error).
  bool silent_write_loss = false;
  /// When non-empty, only files whose path contains this substring are
  /// faulted (e.g. ".pages" to spare metadata sidecars).
  std::string path_filter;

  /// Parses a spec like "seed=42,read_error_p=0.05,transient=1,
  /// torn_read_p=0.01,latency_p=0.1,latency_us=500,fail_reads_after=100,
  /// write_fail_after=8192,silent_write_loss=1,path_filter=.pages".
  /// Unknown keys are InvalidArgument.
  static Result<FaultPlan> Parse(const std::string& spec);

  /// One-line spec that Parse() accepts (default-valued keys omitted).
  std::string ToString() const;
};

/// Injection totals, readable while a workload runs.
struct FaultStats {
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> injected_read_errors{0};
  std::atomic<uint64_t> injected_torn_reads{0};
  std::atomic<uint64_t> injected_latency{0};
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> injected_write_errors{0};
  std::atomic<uint64_t> write_bytes_lost{0};
};

/// Env decorator applying a FaultPlan to every file it opens. Thread
/// safe; decisions are deterministic per (path, offset) regardless of
/// interleaving. Injection can be paused around setup phases with
/// set_enabled(false).
class FaultInjectingEnv : public Env {
 public:
  FaultInjectingEnv(Env* base, FaultPlan plan);
  ~FaultInjectingEnv() override;

  Result<std::unique_ptr<RandomAccessFile>> OpenRandomAccess(
      const std::string& path) override;
  Result<std::unique_ptr<WritableFile>> OpenWritable(
      const std::string& path) override;
  Result<uint64_t> FileSize(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Status DeleteFile(const std::string& path) override;

  const FaultPlan& plan() const { return plan_; }
  FaultStats& stats() { return stats_; }

  /// Pauses/resumes injection (setup/teardown phases of a test).
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Forgets transient-attempt history, so every faulted location fails
  /// its first `transient` attempts again.
  void ResetAttempts();

  // Internal (shared with the file decorators).
  bool PathFaultable(const std::string& path) const;
  /// Attempt counter for a faulted location; returns the attempt index
  /// (1-based) for transient bookkeeping.
  uint32_t NextAttempt(uint64_t location_key);
  /// Claims the next global read-op index (for `fail_reads_after`).
  uint64_t NextReadOp() {
    return read_ops_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Advances the env-wide appended-byte counter (for
  /// `write_fail_after`); returns the offset before this append.
  uint64_t AdvanceAppended(uint64_t n) {
    return bytes_appended_.fetch_add(n, std::memory_order_relaxed);
  }

 private:
  Env* const base_;
  const FaultPlan plan_;
  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> read_ops_{0};
  std::atomic<uint64_t> bytes_appended_{0};
  std::mutex attempts_mutex_;
  std::unordered_map<uint64_t, uint32_t> attempts_;
  FaultStats stats_;
};

}  // namespace opt

#endif  // OPT_STORAGE_FAULT_ENV_H_
