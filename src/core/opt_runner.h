// The OPT framework (paper §3): overlapped, parallel, disk-based
// triangulation. Drives iterations over the on-disk graph; each
// iteration fills the internal area, identifies external candidate
// vertices in read-completion callbacks, then overlaps internal
// triangulation (main thread + page-parallel workers) with external
// triangulation (callback thread draining async-read completions), with
// optional thread morphing between the two roles (§3.4).
#ifndef OPT_CORE_OPT_RUNNER_H_
#define OPT_CORE_OPT_RUNNER_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/iterator_model.h"
#include "core/triangle_sink.h"
#include "graph/intersect.h"
#include "obs/flight_recorder.h"
#include "obs/overlap_profiler.h"
#include "obs/perf_counters.h"
#include "storage/async_io.h"
#include "storage/buffer_pool.h"
#include "storage/graph_store.h"
#include "util/status.h"

namespace opt {

struct OptOptions {
  /// Internal-area size in pages (m_in). Must be >= the store's
  /// MaxRecordPages(). The paper's default split is m_in = m_ex = m/2.
  uint32_t m_in = 0;
  /// External-area size in pages (m_ex): caps concurrently in-flight
  /// external read requests (the L_now/L_later split of Algorithm 4).
  uint32_t m_ex = 0;
  /// Total CPU workers in the overlapped phase: 1 main thread, 1
  /// callback thread, and num_threads-2 extra page-parallel workers.
  /// Ignored (treated as 1) when macro_overlap is false.
  uint32_t num_threads = 2;
  /// False selects OPT_serial: the external triangulation runs after the
  /// internal triangulation on the single main thread. The micro-level
  /// CPU/I-O overlap (async reads in flight during CPU work) remains.
  bool macro_overlap = true;
  /// Thread morphing (§3.4): an idle role steals the other role's work.
  bool thread_morphing = true;
  /// Asynchronous-read worker count (emulated SSD queue depth).
  uint32_t io_queue_depth = 16;
  /// Verify page CRCs on every load.
  bool validate_pages = true;
  /// Algorithm 4's external load order: true (paper) loads far pages
  /// first so the pages adjacent to the internal area are loaded last
  /// and survive in the buffer pool for the next iteration's internal
  /// fill (the Δin saving of §3.3). False loads in ascending page
  /// order — an ablation knob that forfeits the saving.
  bool backward_external_order = true;
  /// Externally owned pool (service mode). Pages survive across runs,
  /// so repeated queries hit instead of re-reading — the Δ I/O saving
  /// amortized across a workload — and concurrent queries share frames.
  /// The pool's page size must match the store's. Null (the default)
  /// gives the run a private pool, as the batch tools always did.
  BufferPool* shared_pool = nullptr;
  /// Page-key namespace tag within `shared_pool` (one per registered
  /// graph; see GraphRegistry). Ignored for private pools.
  uint32_t pool_owner = 0;
  /// Cooperative cancellation (deadlines, client disconnects): checked
  /// at page/chunk granularity; once true the run finishes the in-flight
  /// I/O it owes the shared pool, skips remaining triangulation, and
  /// returns Status::Aborted.
  const std::atomic<bool>* cancel = nullptr;
  /// Retry policy for the run's async page reads. The default retries
  /// transient device faults a few times with backoff; IoRetryPolicy::
  /// None() restores fail-fast.
  IoRetryPolicy io_retry;
  /// Bound on waiting for a page another query is loading (shared
  /// pools). 0 waits forever; with a bound, a reader that dies without
  /// publishing MarkValid/MarkFailed costs this much wall time and a
  /// typed Unavailable instead of a hung query.
  uint64_t io_wait_timeout_millis = 10000;
  /// Run the overlap profiler for this run: worker threads publish role
  /// timelines, a sampler folds them into OptRunStats::overlap (macro /
  /// micro overlap fractions, morph count, cost-model residual).
  bool profile = false;
  /// Sampling period of the profiler (ignored unless `profile`).
  uint64_t profile_period_micros = 1000;
  /// Optional per-query flight recorder: fetch outcomes, I/O retries,
  /// morphs, degradation are recorded as structured events for
  /// postmortems. Null disables. Must outlive the Run() call.
  FlightRecorder* flight = nullptr;
  /// Collect hardware (or fallback-backend) counter deltas per phase:
  /// two counter reads per phase per thread per iteration, so cheap
  /// enough to stay on in production. The backend in use is reported in
  /// OptRunStats::perf_backend — all-zero readings under `none` are an
  /// honest "no PMU", never an error.
  bool collect_perf = true;
};

/// Per-iteration instrumentation (Figure 4).
struct IterationStats {
  VertexId v_lo = 0;
  VertexId v_hi = 0;
  uint32_t internal_pages = 0;
  uint32_t internal_cache_hits = 0;   // Δin: pages not re-read (paper §3.3)
  uint64_t external_pages = 0;
  uint64_t external_cache_hits = 0;
  uint64_t candidates = 0;
  uint64_t chunks = 0;
  double load_seconds = 0;            // internal-area fill (phase A) wall
  double plan_seconds = 0;            // external-load planning (phase B) wall
  double overlap_seconds = 0;         // triangulation (phase C) wall
  // Thread CPU time (not wall) of phase-C work, summed across threads.
  // External work counts from the moment a chunk's frames are valid.
  double internal_cpu_seconds = 0;
  double external_cpu_seconds = 0;
  /// Per-kernel intersection activity during this iteration (delta of
  /// the process-wide counters; concurrent runners mix their counts).
  IntersectCounters intersect;
};

struct OptRunStats {
  uint32_t iterations = 0;
  uint64_t internal_pages_read = 0;
  uint64_t internal_cache_hits = 0;
  uint64_t external_pages_read = 0;
  uint64_t external_cache_hits = 0;
  double elapsed_seconds = 0;
  /// Non-parallelizable wall time (loads, planning: the sum of every
  /// iteration's load_seconds + plan_seconds) vs parallelizable
  /// triangulation wall time — the Amdahl decomposition of Table 5.
  double serial_seconds = 0;
  double parallel_seconds = 0;
  /// Summed per-kernel intersection counters across iterations.
  IntersectCounters intersect;
  std::vector<IterationStats> per_iteration;
  /// Hardware/software counter deltas per phase (A = internal fill,
  /// B = external planning, C = overlapped triangulation), summed over
  /// iterations and — for phase C — across worker threads. The backend
  /// that produced them (DESIGN.md §13's fallback ladder) qualifies the
  /// numbers: cycles/LLC columns are only populated under perf_event_hw.
  PerfBackend perf_backend = PerfBackend::kNone;
  PerfReading perf_phase_a;
  PerfReading perf_phase_b;
  PerfReading perf_phase_c;
  PerfReading PerfTotal() const {
    PerfReading total = perf_phase_a;
    total.Accumulate(perf_phase_b);
    total.Accumulate(perf_phase_c);
    return total;
  }
  /// Filled when OptOptions::profile was set: sampled overlap fractions
  /// plus the fitted cost-model residual (DESIGN.md §9).
  bool profiled = false;
  OverlapReport overlap;

  /// Measured parallel fraction p for Amdahl's law (Table 5).
  double ParallelFraction() const {
    const double total = serial_seconds + parallel_seconds;
    return total <= 0 ? 0.0 : parallel_seconds / total;
  }
};

class OptRunner {
 public:
  /// `store` and `model` must outlive the runner. The runner owns no
  /// global state; concurrent runners on different stores are fine.
  OptRunner(GraphStore* store, const IteratorModel* model,
            const OptOptions& options);

  /// Runs the full triangulation, emitting into `sink` (which must be
  /// thread safe). Fills `stats` if non-null.
  Status Run(TriangleSink* sink, OptRunStats* stats = nullptr);

 private:
  GraphStore* store_;
  const IteratorModel* model_;
  OptOptions options_;
};

}  // namespace opt

#endif  // OPT_CORE_OPT_RUNNER_H_
