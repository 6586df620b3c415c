// Role-timeline sampler measuring the paper's two-level overlap.
//
// OPT's claim (§3) is that a run hides its I/O twice over: *macro*
// overlap — internal and external triangulation proceeding on different
// threads at the same time — and *micro* overlap — CPU intersection work
// proceeding while SSD reads are in flight. Counters and latency
// histograms cannot see either: they record how much happened, not
// whether things happened *simultaneously*. This profiler samples.
//
// Worker threads register a per-thread slot (ThreadScope) and publish
// their current role into it with one relaxed atomic store at each role
// transition; a dedicated sampler thread samples as it starts and then
// every `period_micros`, snapshotting every slot plus the process-wide `io.inflight_depth` gauge
// and the `io.pages_read` counter, and folds each snapshot into overlap
// tallies:
//
//   macro sample: ≥1 thread in {internal, morphed_internal} AND
//                 ≥1 thread in {external, morphed_external}
//   micro sample: ≥1 thread in any CPU role AND (≥1 read in flight OR
//                 pages completed during the sample window)
//
// The pages-read delta makes micro overlap robust on fast devices whose
// reads rarely straddle a sampling instant. Both I/O signals are
// process-global, so concurrent queries see each other's reads; run the
// profiler on an otherwise idle process for per-run attribution.
//
// Stall guard: a slot whose last role update is older than
// `stall_periods` sampling periods counts as `stalled` (and bumps the
// `profiler.stalled_samples` counter) instead of inflating its last
// role's share — a suspended or descheduled thread is not evidence of
// CPU activity.
//
// After Stop(), Report() returns the folded OverlapReport, including a
// cost-model block the caller (opt_runner) fills in from measured I/O
// latency: Cost(OPT_serial) = Cost(ideal) + c(Δex_io − Δin_io), §3.3.
#ifndef OPT_OBS_OVERLAP_PROFILER_H_
#define OPT_OBS_OVERLAP_PROFILER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace opt {

enum class ThreadRole : uint8_t {
  kIdle = 0,
  kInternal = 1,
  kExternal = 2,
  kMorphedInternal = 3,  // an external-home thread stealing internal work
  kMorphedExternal = 4,  // an internal-home thread draining external work
  kIoWait = 5,
};

inline constexpr size_t kNumThreadRoles = 6;

const char* ThreadRoleName(ThreadRole role);

/// Cost(OPT_serial) = Cost(ideal) + c(Δex_io − Δin_io) with c fitted
/// from measured page-read latency. All in seconds / pages.
struct OverlapCostModel {
  double c_seconds_per_page = 0.0;
  uint64_t delta_in_pages = 0;  // internal reads saved by the cache
  uint64_t delta_ex_pages = 0;  // external reads actually performed
  double ideal_seconds = 0.0;       // CPU + one sequential pass of reads
  double predicted_seconds = 0.0;   // ideal + c(Δex − Δin)
  double measured_seconds = 0.0;
  double residual_seconds = 0.0;    // measured − predicted
};

struct OverlapReport {
  uint64_t samples = 0;
  uint64_t micro_overlap_samples = 0;
  uint64_t macro_overlap_samples = 0;
  uint64_t cpu_active_samples = 0;   // ≥1 non-idle, non-io-wait role
  uint64_t io_inflight_samples = 0;  // ≥1 read in flight (or completed)
  uint64_t stalled_samples = 0;      // slot-samples discarded as stale
  uint64_t morph_events = 0;
  std::array<uint64_t, kNumThreadRoles> role_samples{};  // slot-samples
  uint64_t period_micros = 0;
  OverlapCostModel cost;

  double MicroOverlapFraction() const {
    return samples == 0 ? 0.0
                        : static_cast<double>(micro_overlap_samples) /
                              static_cast<double>(samples);
  }
  double MacroOverlapFraction() const {
    return samples == 0 ? 0.0
                        : static_cast<double>(macro_overlap_samples) /
                              static_cast<double>(samples);
  }
};

class OverlapProfiler {
 public:
  struct Options {
    uint64_t period_micros = 1000;
    uint32_t max_threads = 64;
    uint32_t stall_periods = 10;
    /// Emit "overlap.cpu_roles" / "overlap.io_inflight" counter tracks
    /// into the active trace recorder (if any) at each sample.
    bool trace_counters = true;
  };

  OverlapProfiler();
  explicit OverlapProfiler(const Options& options);
  ~OverlapProfiler();

  OverlapProfiler(const OverlapProfiler&) = delete;
  OverlapProfiler& operator=(const OverlapProfiler&) = delete;

  /// Waits for the sampler's first sample (taken as it starts), then
  /// joins the sampler thread, so a report always holds at least one
  /// sample. Idempotent. Report() is only meaningful after Stop().
  void Stop();

  OverlapReport Report() const;

  /// Count one thread-morph event (caller also records a trace instant
  /// and a flight-recorder event; this keeps the report's count in
  /// lockstep with those).
  void RecordMorph() { morphs_.fetch_add(1, std::memory_order_relaxed); }

  /// Registers the calling thread into a profiler slot for the scope's
  /// lifetime. `home` is the thread's native role: SetWork() uses it to
  /// distinguish morphed from native work. A null profiler makes every
  /// operation a no-op, so instrumentation sites need no `if (profile)`.
  class ThreadScope {
   public:
    ThreadScope(OverlapProfiler* profiler, ThreadRole home);
    ~ThreadScope();

    ThreadScope(const ThreadScope&) = delete;
    ThreadScope& operator=(const ThreadScope&) = delete;

   private:
    OverlapProfiler* profiler_ = nullptr;
    size_t slot_index_ = 0;
  };

  /// Publish the calling thread's current role. No-op when the thread
  /// has no active ThreadScope.
  static void SetRole(ThreadRole role);

  /// Publish "this thread is now doing internal/external CPU work",
  /// resolving to a morphed role when it differs from the thread's home
  /// role (external-home thread doing internal work → morphed_internal,
  /// and vice versa). No-op without an active ThreadScope.
  static void SetWork(bool internal_work);

 private:
  struct Slot {
    std::atomic<bool> in_use{false};
    std::atomic<uint8_t> role{0};
    std::atomic<uint64_t> last_update_micros{0};
    ThreadRole home = ThreadRole::kIdle;
  };

  void SamplerLoop();
  uint64_t NowMicros() const;

  const Options options_;
  std::vector<Slot> slots_;
  std::atomic<uint64_t> morphs_{0};
  // Coarse clock advanced by the sampler each period. SetRole() stamps
  // slots from this instead of calling clock_gettime — role updates sit
  // in per-page hot loops, and the stall guard only needs timestamps at
  // period granularity anyway.
  std::atomic<uint64_t> coarse_now_micros_{0};

  // Tallies owned by the sampler thread while running; read by Report()
  // only after Stop() joins.
  OverlapReport report_;

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool stopped_ = false;
  std::thread sampler_;
  const std::chrono::steady_clock::time_point origin_;
};

}  // namespace opt

#endif  // OPT_OBS_OVERLAP_PROFILER_H_
