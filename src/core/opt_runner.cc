#include "core/opt_runner.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <deque>
#include <limits>
#include <optional>
#include <span>
#include <thread>

#include "core/successor_index.h"
#include "storage/async_io.h"
#include "storage/buffer_pool.h"
#include "storage/record_scanner.h"
#include "util/metrics.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace opt {

namespace {

/// Registry counters fed once per Run() from OptRunStats. The cache-hit
/// counters are the paper's Δin / Δex: pages the buffer pool saved the
/// run from re-reading (§3.3's cost identity, exposed live via STATS).
struct RunCounters {
  Counter* runs = Metrics().GetCounter("opt.runs");
  Counter* iterations = Metrics().GetCounter("opt.iterations");
  Counter* internal_pages_read =
      Metrics().GetCounter("opt.internal.pages_read");
  Counter* internal_cache_hits =
      Metrics().GetCounter("opt.internal.cache_hits");
  Counter* external_pages_read =
      Metrics().GetCounter("opt.external.pages_read");
  Counter* external_cache_hits =
      Metrics().GetCounter("opt.external.cache_hits");
  /// Per-kernel intersection activity (opt.intersect.<kernel>.calls /
  /// .elements; the models' mark-and-probe counts as bitmap_scalar).
  Counter* intersect_calls[kNumIntersectKernels];
  Counter* intersect_elements[kNumIntersectKernels];
  /// PMU deltas (DESIGN.md §13). Totals plus a per-phase breakdown so
  /// STATS can answer "where do the cycles go" without a trace. The
  /// populated subset depends on perf.backend — cycles/LLC columns stay
  /// zero under the sw/rusage rungs, and that absence is the signal.
  Counter* perf_cycles = Metrics().GetCounter("opt.perf.cycles");
  Counter* perf_instructions = Metrics().GetCounter("opt.perf.instructions");
  Counter* perf_llc_loads = Metrics().GetCounter("opt.perf.llc_loads");
  Counter* perf_llc_misses = Metrics().GetCounter("opt.perf.llc_misses");
  Counter* perf_branch_misses =
      Metrics().GetCounter("opt.perf.branch_misses");
  Counter* perf_task_clock_ns =
      Metrics().GetCounter("opt.perf.task_clock_ns");
  Counter* perf_page_faults = Metrics().GetCounter("opt.perf.page_faults");
  Counter* perf_context_switches =
      Metrics().GetCounter("opt.perf.context_switches");
  Counter* phase_cycles[3];
  Counter* phase_instructions[3];
  Counter* phase_llc_misses[3];
  Counter* phase_task_clock_ns[3];
  /// Multiplexing honesty: time_running/time_enabled of the last run,
  /// in ppm. Below 1e6 the PMU was time-shared and counts undercount.
  Gauge* perf_multiplex_ppm = Metrics().GetGauge("perf.multiplex_ppm");

  RunCounters() {
    for (int k = 0; k < kNumIntersectKernels; ++k) {
      const std::string base =
          std::string("opt.intersect.") +
          IntersectKernelName(static_cast<IntersectKernel>(k));
      intersect_calls[k] = Metrics().GetCounter(base + ".calls");
      intersect_elements[k] = Metrics().GetCounter(base + ".elements");
    }
    static const char* kPhases[3] = {"phaseA", "phaseB", "phaseC"};
    for (int p = 0; p < 3; ++p) {
      const std::string base = std::string("opt.perf.") + kPhases[p];
      phase_cycles[p] = Metrics().GetCounter(base + ".cycles");
      phase_instructions[p] = Metrics().GetCounter(base + ".instructions");
      phase_llc_misses[p] = Metrics().GetCounter(base + ".llc_misses");
      phase_task_clock_ns[p] = Metrics().GetCounter(base + ".task_clock_ns");
    }
    PublishPerfBackendMetrics();
  }
};

RunCounters& GlobalRunCounters() {
  static RunCounters counters;
  return counters;
}

void PublishRunStats(const OptRunStats& stats) {
  RunCounters& counters = GlobalRunCounters();
  counters.runs->Increment();
  counters.iterations->Increment(stats.iterations);
  counters.internal_pages_read->Increment(stats.internal_pages_read);
  counters.internal_cache_hits->Increment(stats.internal_cache_hits);
  counters.external_pages_read->Increment(stats.external_pages_read);
  counters.external_cache_hits->Increment(stats.external_cache_hits);
  for (int k = 0; k < kNumIntersectKernels; ++k) {
    counters.intersect_calls[k]->Increment(stats.intersect.calls[k]);
    counters.intersect_elements[k]->Increment(stats.intersect.elements[k]);
  }
  const PerfReading total = stats.PerfTotal();
  counters.perf_cycles->Increment(total.cycles);
  counters.perf_instructions->Increment(total.instructions);
  counters.perf_llc_loads->Increment(total.llc_loads);
  counters.perf_llc_misses->Increment(total.llc_misses);
  counters.perf_branch_misses->Increment(total.branch_misses);
  counters.perf_task_clock_ns->Increment(total.task_clock_ns);
  counters.perf_page_faults->Increment(total.page_faults);
  counters.perf_context_switches->Increment(total.context_switches);
  const PerfReading* phases[3] = {&stats.perf_phase_a, &stats.perf_phase_b,
                                  &stats.perf_phase_c};
  for (int p = 0; p < 3; ++p) {
    counters.phase_cycles[p]->Increment(phases[p]->cycles);
    counters.phase_instructions[p]->Increment(phases[p]->instructions);
    counters.phase_llc_misses[p]->Increment(phases[p]->llc_misses);
    counters.phase_task_clock_ns[p]->Increment(phases[p]->task_clock_ns);
  }
  if (total.time_enabled_ns > 0) {
    counters.perf_multiplex_ppm->Set(
        static_cast<int64_t>(total.MultiplexRatio() * 1e6));
  }
}

/// The most pages one read request carries: 32, i.e. 128 KiB at the
/// default 4 KiB page. Up to about this size an SSD's random-read latency
/// stays roughly flat, so longer runs of missing pages are split.
constexpr uint32_t kMaxRunPages = 32;

/// One external read unit: a run of consecutive pages covering every
/// candidate assigned to it (Algorithm 4 groups candidates by page;
/// adjacency lists spanning pages widen the run, and overlapping runs
/// are merged so no page is ever read concurrently by two requests).
struct Chunk {
  uint32_t first_pid = 0;
  uint32_t page_count = 0;
  std::vector<VertexId> candidates;
};

/// All mutable state of one Run(); shared by the worker roles.
struct RunContext {
  // Immutable during an iteration.
  GraphStore* store = nullptr;
  const IteratorModel* model = nullptr;
  OptOptions options;
  TriangleSink* sink = nullptr;

  BufferPool* pool = nullptr;
  uint32_t owner = 0;  // page-key namespace within the pool
  AsyncIoEngine* engine = nullptr;
  CompletionQueue completions;

  // Observability hooks (both optional; null → no-ops).
  OverlapProfiler* profiler = nullptr;
  FlightRecorder* flight = nullptr;

  // Per-iteration state.
  IterationPlan plan;
  std::vector<Frame*> internal_frames;
  std::vector<const char*> internal_page_data;
  // n_succ of [plan.v_lo, plan.v_hi], rebuilt in phase B of every
  // iteration on the buffers of the previous one.
  SuccessorIndex internal;

  // One model scratch per phase-C thread slot (0 = main thread,
  // 1 = callback thread, t = flex worker t), built once per run. Each
  // holds a |V|-bit successor marker, so helpers spawned per iteration
  // reuse their slot's marker instead of allocating one.
  std::vector<ModelScratch> scratch;

  // External candidates of the current iteration: one bit per vertex of
  // the store (|V|/8 bytes for the whole run). Phase A's completion
  // callbacks run on the main thread, so it is the only writer; phase B
  // scans words [candidate_lo/64, candidate_hi/64] and zeroes each one as
  // it reads it, which leaves the bitmap empty for the next iteration.
  std::vector<uint64_t> candidate_bits;
  VertexId candidate_lo = std::numeric_limits<VertexId>::max();
  VertexId candidate_hi = 0;

  std::mutex later_mutex;              // Algorithm 9's atomic block
  std::deque<Chunk> later;
  uint32_t ext_capacity = 0;  // in-flight external page budget (m_ex)
  uint32_t ext_used = 0;      // guarded by later_mutex

  CompletionGroup group_in;
  CompletionGroup group_ex;

  std::atomic<uint32_t> internal_cursor{0};
  std::atomic<uint32_t> internal_pages_done{0};
  uint32_t internal_page_count = 0;

  // Error propagation: first error wins; workers drain without working.
  std::mutex error_mutex;
  Status first_error;
  std::atomic<bool> abort{false};

  // Instrumentation (summed across threads; CPU as thread CPU time).
  std::atomic<uint64_t> internal_cpu_nanos{0};
  std::atomic<uint64_t> external_cpu_nanos{0};
  std::atomic<uint64_t> external_pages{0};
  std::atomic<uint64_t> external_hits{0};

  // PMU deltas per phase, folded across iterations and (phase C) across
  // worker threads. Null when collect_perf is off — PerfScope treats a
  // null accumulator as inert.
  PerfAccumulator perf_a, perf_b, perf_c;
  PerfAccumulator* PerfSink(PerfAccumulator* acc) {
    return options.collect_perf ? acc : nullptr;
  }

  PageKey Key(uint32_t pid) const { return MakePageKey(owner, pid); }

  void RecordError(const Status& status) {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (first_error.ok()) first_error = status;
    abort.store(true, std::memory_order_release);
  }

  bool aborted() const { return abort.load(std::memory_order_acquire); }

  /// Polls the external cancellation flag (deadline watchdogs); turns it
  /// into the run-wide abort. Returns the combined abort state.
  bool CheckCancel() {
    if (!aborted() && options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      if (flight != nullptr) flight->Record(FlightEventType::kCancel);
      RecordError(Status::Aborted("query cancelled"));
    }
    return aborted();
  }

  void RecordFetch(BufferPool::FetchOutcome outcome, uint32_t pid) {
    if (flight == nullptr) return;
    switch (outcome) {
      case BufferPool::FetchOutcome::kHit:
        flight->Record(FlightEventType::kFetchHit, pid);
        break;
      case BufferPool::FetchOutcome::kInFlight:
        flight->Record(FlightEventType::kFetchInFlight, pid);
        break;
      case BufferPool::FetchOutcome::kMiss:
        flight->Record(FlightEventType::kFetchMiss, pid);
        break;
    }
  }

  bool InternalDone() const {
    return internal_pages_done.load(std::memory_order_acquire) >=
           internal_page_count;
  }
};

/// Parses one internal page and marks the model's external candidates in
/// the candidate bitmap (Algorithm 7: IdentifyExternalCandidateVertex).
/// Main thread only. A neighbour id past |V| can only come from a
/// damaged store whose page CRCs still match; it fails the run with
/// Corruption instead of indexing past the bitmap and page directory.
void CollectCandidatesFromPage(RunContext* ctx, const char* data) {
  PageView page(data, ctx->store->page_size());
  const VertexId n = ctx->store->num_vertices();
  std::vector<VertexId> local;
  const uint32_t slots = page.num_slots();
  for (uint32_t s = 0; s < slots; ++s) {
    const Segment seg = page.GetSegment(s);
    if (seg.vertex < ctx->plan.v_lo || seg.vertex > ctx->plan.v_hi) continue;
    local.clear();
    ctx->model->CollectCandidates(ctx->plan, seg, &local);
    for (VertexId v : local) {
      if (v >= n) {
        ctx->RecordError(Status::Corruption(
            "page " + std::to_string(page.page_id()) + ": vertex " +
            std::to_string(seg.vertex) + " lists neighbour " +
            std::to_string(v) + " but the store has " + std::to_string(n) +
            " vertices"));
        return;
      }
      ctx->candidate_bits[v / 64] |= uint64_t{1} << (v % 64);
      ctx->candidate_lo = std::min(ctx->candidate_lo, v);
      ctx->candidate_hi = std::max(ctx->candidate_hi, v);
    }
  }
}

/// Phase B's chunk planning: drains the candidate bitmap in ascending
/// vertex order into page-run chunks. Records are laid out in vertex
/// order, so a candidate whose first page is at or before the previous
/// chunk's last page shares a page with it and joins that chunk; this
/// both groups candidates by page and merges overlapping runs of spanning
/// records, so no page has two concurrent in-flight reads. Returns the
/// number of candidates.
uint64_t PlanChunks(RunContext* ctx, std::vector<Chunk>* chunks) {
  uint64_t candidates = 0;
  if (ctx->candidate_lo > ctx->candidate_hi) return 0;
  const GraphStore& store = *ctx->store;
  for (size_t w = ctx->candidate_lo / 64; w <= ctx->candidate_hi / 64; ++w) {
    uint64_t word = ctx->candidate_bits[w];
    if (word == 0) continue;
    ctx->candidate_bits[w] = 0;
    for (; word != 0; word &= word - 1) {
      const VertexId v =
          static_cast<VertexId>(w * 64 + std::countr_zero(word));
      const uint32_t fp = store.FirstPageOfVertex(v);
      const uint32_t end = store.LastPageOfVertex(v) + 1;
      ++candidates;
      if (!chunks->empty()) {
        Chunk& prev = chunks->back();
        const uint32_t prev_end = prev.first_pid + prev.page_count;
        if (fp < prev_end) {
          prev.page_count = std::max(prev_end, end) - prev.first_pid;
          prev.candidates.push_back(v);
          continue;
        }
      }
      chunks->push_back(Chunk{fp, end - fp, {v}});
    }
  }
  ctx->candidate_lo = std::numeric_limits<VertexId>::max();
  ctx->candidate_hi = 0;
  return candidates;
}

/// Runs the internal triangulation for one page of the internal area
/// (the page-granular parallel loop of Algorithm 5).
void ProcessInternalPage(RunContext* ctx, uint32_t page_index,
                         ModelScratch* scratch) {
  ThreadCpuStopwatch cpu;
  OverlapProfiler::SetWork(/*internal_work=*/true);
  if (!ctx->CheckCancel()) {
    PageView page(ctx->internal_page_data[page_index],
                  ctx->store->page_size());
    const uint32_t slots = page.num_slots();
    for (uint32_t s = 0; s < slots; ++s) {
      const Segment seg = page.GetSegment(s);
      // A record is processed once, by the page holding its first segment.
      if (!seg.IsFirstSegment()) continue;
      if (seg.vertex < ctx->plan.v_lo || seg.vertex > ctx->plan.v_hi) {
        continue;
      }
      ctx->model->InternalTriangles(ctx->internal, ctx->plan,
                                    seg.vertex, ctx->sink, scratch);
    }
  }
  ctx->internal_cpu_nanos.fetch_add(cpu.ElapsedNanos(),
                                    std::memory_order_relaxed);
  ctx->internal_pages_done.fetch_add(1, std::memory_order_acq_rel);
}

/// Claims and runs one internal page. Returns false when none remain.
bool RunOneInternalUnit(RunContext* ctx, ModelScratch* scratch) {
  const uint32_t i =
      ctx->internal_cursor.fetch_add(1, std::memory_order_relaxed);
  if (i >= ctx->internal_page_count) return false;
  ProcessInternalPage(ctx, i, scratch);
  return true;
}

void SubmitChunk(RunContext* ctx, Chunk chunk);

/// The scratch of the thread running DrainExternal. Chunk callbacks are
/// completion tasks, and only DrainExternal runs them in phase C, so
/// ProcessChunk finds its thread's scratch here.
thread_local ModelScratch* t_drain_scratch = nullptr;

/// The L_now/L_later regulator of Algorithm 4: submits queued chunks
/// while the in-flight external page budget (m_ex) allows. Completions
/// return budget and pump again, which realizes Algorithm 9's chained
/// asynchronous reads. On abort the remaining queue is dropped instead
/// of read — cancellation should not pay for I/O it will ignore.
void PumpExternal(RunContext* ctx) {
  std::vector<Chunk> to_submit;
  uint32_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(ctx->later_mutex);
    if (ctx->aborted()) {
      dropped = static_cast<uint32_t>(ctx->later.size());
      ctx->later.clear();
    } else {
      while (!ctx->later.empty() &&
             ctx->ext_used + ctx->later.front().page_count <=
                 ctx->ext_capacity) {
        ctx->ext_used += ctx->later.front().page_count;
        to_submit.push_back(std::move(ctx->later.front()));
        ctx->later.pop_front();
      }
    }
  }
  for (auto& chunk : to_submit) SubmitChunk(ctx, std::move(chunk));
  for (uint32_t i = 0; i < dropped; ++i) ctx->group_ex.Done();
}

/// Algorithm 9: ExternalTriangle for one loaded chunk, then chain the
/// next read from L_later.
void ProcessChunk(RunContext* ctx, Chunk chunk,
                  std::vector<Frame*> frames) {
  TraceSpan chunk_span(
      "opt", "external.chunk",
      CurrentTraceRecorder() != nullptr
          ? "\"first_pid\":" + std::to_string(chunk.first_pid) +
                ",\"pages\":" + std::to_string(chunk.page_count) +
                ",\"candidates\":" + std::to_string(chunk.candidates.size())
          : std::string());
  // Frames fetched as in-flight were loaded by a concurrent query
  // sharing the pool; their validity is published by that query's I/O
  // workers, never by our completion drain, so this wait always makes
  // progress.
  OverlapProfiler::SetRole(ThreadRole::kIoWait);
  Status frames_ready;
  for (size_t i = 0; i < frames.size(); ++i) {
    frames_ready =
        ctx->pool->WaitValid(frames[i], ctx->options.io_wait_timeout_millis);
    if (!frames_ready.ok()) {
      if (ctx->flight != nullptr && frames_ready.IsUnavailable()) {
        ctx->flight->Record(FlightEventType::kWaitTimeout,
                            chunk.first_pid + static_cast<uint32_t>(i));
      }
      ctx->RecordError(frames_ready);
      break;
    }
  }
  // External CPU counts from here: the frame waits above are not work.
  ThreadCpuStopwatch cpu;
  OverlapProfiler::SetWork(/*internal_work=*/false);
  if (frames_ready.ok() && !ctx->CheckCancel()) {
    // The decoder hands out only the candidates' records, in ascending
    // vertex order like the candidates, so a candidate it skips over has
    // no complete record in the chunk.
    const std::vector<VertexId>& candidates = chunk.candidates;
    const auto missing = [](VertexId v) {
      return Status::Corruption("external candidate " + std::to_string(v) +
                                " not fully covered by its chunk");
    };
    ModelScratch* scratch = t_drain_scratch;
    RecordDecoder decoder(*ctx->store, candidates);
    size_t next = 0;  // the first candidate not yet met
    const auto on_record = [&](VertexId v, const AdjacencyRef& adj) {
      if (candidates[next] != v) return missing(candidates[next]);
      // Refresh the slot each candidate so a long chunk never trips the
      // sampler's stall guard mid-CPU-burst.
      OverlapProfiler::SetWork(/*internal_work=*/false);
      ctx->model->ExternalTriangles(ctx->internal, ctx->plan, v, adj,
                                    ctx->sink, scratch);
      ++next;
      return Status::OK();
    };
    Status s;
    for (uint32_t i = 0; i < frames.size() && s.ok(); ++i) {
      s = decoder.Feed(frames[i]->data, chunk.first_pid + i, on_record);
    }
    if (s.ok() && next < candidates.size()) s = missing(candidates[next]);
    if (!s.ok()) ctx->RecordError(s);
  }
  ctx->pool->Unpin(frames);
  ctx->external_cpu_nanos.fetch_add(cpu.ElapsedNanos(),
                                    std::memory_order_relaxed);

  // Return the budget and chain further requests (the paper's atomic
  // block, lines 9-13).
  {
    std::lock_guard<std::mutex> lock(ctx->later_mutex);
    ctx->ext_used -= chunk.page_count;
  }
  PumpExternal(ctx);
  ctx->group_ex.Done();
}

/// A read request for the run of pool frames `frames`, which hold pages
/// first_pid, first_pid + 1, ...: the I/O worker reads them with one
/// device read, then validates and publishes them (MarkValid /
/// MarkFailed) before `callback` is queued.
ReadRequest RunRequest(RunContext* ctx, uint32_t first_pid,
                       std::span<Frame* const> frames,
                       std::function<void(const Status&)> callback) {
  ReadRequest request;
  request.file = ctx->store->file();
  request.first_pid = first_pid;
  request.page_count = static_cast<uint32_t>(frames.size());
  request.frames.assign(frames.begin(), frames.end());
  request.completion_queue = &ctx->completions;
  request.pool = ctx->pool;
  request.validate = ctx->options.validate_pages;
  request.page_size = ctx->store->page_size();
  request.flight = ctx->flight;
  request.callback = std::move(callback);
  return request;
}

/// Consecutive missing pages of one chunk, as indices into its frames.
struct PageRun {
  uint32_t first = 0;
  uint32_t count = 0;
};

/// Issues the asynchronous reads for one chunk: one request per run of
/// consecutive missing pages. Pages already cached in the buffer pool —
/// by this run's earlier iterations or by concurrent queries on a shared
/// pool — are reused without I/O (the Δ-I/O savings of §3.3).
void SubmitChunk(RunContext* ctx, Chunk chunk) {
  struct ChunkState {
    RunContext* ctx;
    Chunk chunk;
    std::vector<Frame*> frames;
    std::atomic<uint32_t> pending{0};
  };
  auto state = std::make_shared<ChunkState>();
  state->ctx = ctx;
  state->frames.resize(chunk.page_count, nullptr);

  std::vector<PageRun> runs;
  uint64_t missing = 0;
  for (uint32_t i = 0; i < chunk.page_count; ++i) {
    const uint32_t pid = chunk.first_pid + i;
    auto fetch = ctx->pool->Fetch(ctx->Key(pid));
    if (!fetch.ok()) {
      ctx->RecordError(fetch.status());
      // Roll back: owned misses must be published as failed before the
      // pin drops, or concurrent waiters would hang on them forever.
      for (const PageRun& run : runs) {
        ctx->pool->MarkFailed(
            std::span<Frame* const>(state->frames).subspan(run.first,
                                                           run.count));
      }
      ctx->pool->Unpin(std::span<Frame* const>(state->frames).first(i));
      {
        std::lock_guard<std::mutex> lock(ctx->later_mutex);
        ctx->ext_used -= chunk.page_count;
      }
      // The run is aborted now: drop the chunks still queued, since no
      // other chunk may be in flight to do it when it completes.
      PumpExternal(ctx);
      ctx->group_ex.Done();
      return;
    }
    state->frames[i] = fetch->frame;
    ctx->RecordFetch(fetch->outcome, pid);
    if (fetch->outcome != BufferPool::FetchOutcome::kMiss) {
      ctx->external_hits.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    ++missing;
    if (!runs.empty() && runs.back().first + runs.back().count == i &&
        runs.back().count < kMaxRunPages) {
      ++runs.back().count;
    } else {
      runs.push_back(PageRun{i, 1});
    }
  }
  ctx->external_pages.fetch_add(missing, std::memory_order_relaxed);
  state->chunk = std::move(chunk);

  if (runs.empty()) {
    // Fully cached: skip the device, go straight to the callback queue.
    ctx->completions.Push([state] {
      ProcessChunk(state->ctx, std::move(state->chunk),
                   std::move(state->frames));
    });
    return;
  }
  state->pending.store(static_cast<uint32_t>(runs.size()),
                       std::memory_order_release);
  for (const PageRun& run : runs) {
    ctx->engine->Submit(RunRequest(
        ctx, state->chunk.first_pid + run.first,
        std::span<Frame* const>(state->frames).subspan(run.first, run.count),
        [state](const Status& status) {
          RunContext* ctx = state->ctx;
          if (!status.ok()) ctx->RecordError(status);
          if (state->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            ProcessChunk(ctx, std::move(state->chunk),
                         std::move(state->frames));
          }
        }));
  }
}

/// True when the iteration's external triangulation has fully finished.
bool ExternalDone(RunContext* ctx) { return ctx->group_ex.Finished(); }

/// Drains completion tasks until the external side is finished; with
/// morphing, steals internal pages while the queue is empty.
void DrainExternal(RunContext* ctx, bool allow_morph,
                   ModelScratch* scratch) {
  t_drain_scratch = scratch;
  bool morph_traced = false;
  while (!ExternalDone(ctx)) {
    if (auto task = ctx->completions.TryPop()) {
      (*task)();
      continue;
    }
    if (allow_morph && RunOneInternalUnit(ctx, scratch)) {
      if (!morph_traced) {
        // First steal only: one marker per morph transition, not one
        // per stolen page.
        TraceInstant("morph", "morph.steal_internal");
        if (ctx->profiler != nullptr) ctx->profiler->RecordMorph();
        if (ctx->flight != nullptr) {
          ctx->flight->Record(FlightEventType::kMorphStealInternal);
        }
        morph_traced = true;
      }
      continue;
    }
    OverlapProfiler::SetRole(ThreadRole::kIoWait);
    if (auto task = ctx->completions.PopFor(200)) (*task)();
  }
  t_drain_scratch = nullptr;
}

/// The callback-thread role for one iteration's overlapped phase:
/// external triangulation first, then (if morphing) internal stealing.
void CallbackRole(RunContext* ctx) {
  TraceSpan role_span("opt", "external.callback_role");
  OverlapProfiler::ThreadScope profile_scope(ctx->profiler,
                                             ThreadRole::kExternal);
  PerfScope perf_scope(ctx->PerfSink(&ctx->perf_c));
  ModelScratch* scratch = &ctx->scratch[1];
  DrainExternal(ctx, ctx->options.thread_morphing, scratch);
  if (ctx->options.thread_morphing) {
    while (RunOneInternalUnit(ctx, scratch)) {
    }
  }
}

/// Extra workers prefer internal pages, then morph into callbacks.
/// `slot` indexes the worker's scratch.
void FlexRole(RunContext* ctx, uint32_t slot) {
  TraceSpan role_span("opt", "internal.flex_role");
  OverlapProfiler::ThreadScope profile_scope(ctx->profiler,
                                             ThreadRole::kInternal);
  PerfScope perf_scope(ctx->PerfSink(&ctx->perf_c));
  ModelScratch* scratch = &ctx->scratch[slot];
  while (RunOneInternalUnit(ctx, scratch)) {
  }
  if (ctx->options.thread_morphing) {
    if (!ExternalDone(ctx)) {
      TraceInstant("morph", "morph.to_external");
      if (ctx->profiler != nullptr) ctx->profiler->RecordMorph();
      if (ctx->flight != nullptr) {
        ctx->flight->Record(FlightEventType::kMorphToExternal);
      }
    }
    DrainExternal(ctx, /*allow_morph=*/true, scratch);
  }
}

/// Scoped shared-pool capacity claim: guarantees this run can keep its
/// m_in + ext_capacity (+ slack) frames pinned without starving the
/// other queries on the pool. Released capacity stays behind as cache.
struct FrameReservation {
  BufferPool* pool;
  uint32_t n;
  FrameReservation(BufferPool* pool, uint32_t n) : pool(pool), n(n) {
    pool->ReserveFrames(n);
  }
  ~FrameReservation() { pool->ReleaseFrames(n); }
  void GrowTo(uint32_t total) {
    if (total > n) {
      pool->ReserveFrames(total - n);
      n = total;
    }
  }
};

}  // namespace

OptRunner::OptRunner(GraphStore* store, const IteratorModel* model,
                     const OptOptions& options)
    : store_(store), model_(model), options_(options) {}

Status OptRunner::Run(TriangleSink* sink, OptRunStats* stats) {
  if (options_.m_in == 0 || options_.m_ex == 0) {
    return Status::InvalidArgument("m_in and m_ex must be positive");
  }
  if (options_.m_in < store_->MaxRecordPages()) {
    return Status::ResourceExhausted(
        "internal area (" + std::to_string(options_.m_in) +
        " pages) smaller than the largest adjacency list (" +
        std::to_string(store_->MaxRecordPages()) + " pages)");
  }
  if (options_.shared_pool != nullptr &&
      options_.shared_pool->page_size() != store_->page_size()) {
    return Status::InvalidArgument(
        "shared pool page size (" +
        std::to_string(options_.shared_pool->page_size()) +
        ") does not match the store's (" +
        std::to_string(store_->page_size()) + ")");
  }
  if (store_->num_vertices() == 0) {
    if (stats != nullptr) *stats = OptRunStats();
    return sink->Finish();
  }

  Stopwatch total_watch;
  TraceSpan run_span("opt", "opt.run",
                     "\"vertices\":" +
                         std::to_string(store_->num_vertices()) +
                         ",\"m_in\":" + std::to_string(options_.m_in) +
                         ",\"m_ex\":" + std::to_string(options_.m_ex));
  // Declaration order is load-bearing: the context (and its completion
  // queue) and the pool must outlive the engine, whose destructor joins
  // the I/O workers — a worker's completion push or frame publication
  // may otherwise race their destruction at the end of Run(). The
  // profiler outlives every ThreadScope referencing it (helpers join in
  // phase C; the main scope below is destroyed first).
  std::optional<OverlapProfiler> profiler;
  if (options_.profile) {
    OverlapProfiler::Options profile_options;
    profile_options.period_micros =
        options_.profile_period_micros == 0 ? 1000
                                            : options_.profile_period_micros;
    profiler.emplace(profile_options);
  }
  OverlapProfiler::ThreadScope main_profile_scope(
      profiler.has_value() ? &*profiler : nullptr, ThreadRole::kInternal);
  RunContext ctx;
  // m_in + m_ex frames as in the paper; grows per iteration only if a
  // merged chunk around spanning adjacency lists exceeds m_ex. A shared
  // pool instead *reserves* that capacity so concurrent queries compose.
  std::optional<BufferPool> private_pool;
  BufferPool* pool = options_.shared_pool;
  if (pool == nullptr) {
    private_pool.emplace(store_->page_size(),
                         options_.m_in + options_.m_ex + 2);
    pool = &*private_pool;
  }
  FrameReservation reservation(pool, options_.m_in + options_.m_ex + 2);
  AsyncIoEngine engine(options_.io_queue_depth, options_.io_retry);

  ctx.store = store_;
  ctx.model = model_;
  ctx.options = options_;
  ctx.sink = sink;
  ctx.pool = pool;
  ctx.owner = options_.shared_pool != nullptr ? options_.pool_owner : 0;
  ctx.engine = &engine;
  ctx.profiler = profiler.has_value() ? &*profiler : nullptr;
  ctx.flight = options_.flight;

  OptRunStats run_stats;
  const VertexId n = store_->num_vertices();
  ctx.candidate_bits.assign((static_cast<size_t>(n) + 63) / 64, 0);
  // Phase C's thread slots: the main thread, plus with macro overlap the
  // callback thread and num_threads - 2 flex workers.
  const uint32_t slots =
      options_.macro_overlap ? std::max(options_.num_threads, 2u) : 1u;
  ctx.scratch.reserve(slots);
  for (uint32_t t = 0; t < slots; ++t) ctx.scratch.emplace_back(n);
  VertexId v_start = 0;
  while (v_start < n && !ctx.CheckCancel()) {
    OPT_ASSIGN_OR_RETURN(ctx.plan,
                         store_->PlanIteration(v_start, options_.m_in));
    IterationStats iter;
    iter.v_lo = ctx.plan.v_lo;
    iter.v_hi = ctx.plan.v_hi;
    const IntersectCounters intersect_start = SnapshotIntersectCounters();
    TraceSpan iter_span("opt", "iteration",
                        "\"v_lo\":" + std::to_string(ctx.plan.v_lo) +
                            ",\"v_hi\":" + std::to_string(ctx.plan.v_hi));

    // ----- Phase A: fill the internal area (Algorithm 3 lines 5-8) -----
    std::optional<TraceSpan> phase_span;
    phase_span.emplace("opt", "phaseA.load");
    // Main-thread PMU scope, re-aimed at each phase boundary (workers
    // fold into perf_c via their own scopes). optional::emplace stops
    // the previous scope before snapshotting the next, so no cycle is
    // counted twice.
    std::optional<PerfScope> perf_scope;
    perf_scope.emplace(ctx.PerfSink(&ctx.perf_a));
    Stopwatch load_watch;
    const uint32_t pages = ctx.plan.num_pages();
    ctx.internal_frames.assign(pages, nullptr);
    ctx.internal_page_data.assign(pages, nullptr);
    ctx.internal_page_count = pages;
    ctx.internal_cursor.store(0);
    ctx.internal_pages_done.store(0);
    ctx.internal_cpu_nanos.store(0);
    ctx.external_cpu_nanos.store(0);
    ctx.external_pages.store(0);
    ctx.external_hits.store(0);

    // Consecutive misses gather into one run, read with one request. A
    // run is submitted before the loop does anything else, and before
    // any wait: a concurrent query may be waiting on its pages.
    uint32_t run_first = 0;  // index into internal_frames
    uint32_t run_count = 0;
    const auto submit_run = [&] {
      if (run_count == 0) return;
      ctx.group_in.Add();
      RunContext* pctx = &ctx;
      engine.Submit(RunRequest(
          &ctx, ctx.plan.pid_lo + run_first,
          std::span<Frame* const>(ctx.internal_frames)
              .subspan(run_first, run_count),
          [pctx, first = run_first, count = run_count](const Status& status) {
            if (!status.ok()) {
              pctx->RecordError(status);
            } else {
              for (uint32_t k = first; k < first + count; ++k) {
                if (pctx->aborted()) break;
                CollectCandidatesFromPage(pctx, pctx->internal_frames[k]->data);
              }
            }
            pctx->group_in.Done();
          }));
      run_count = 0;
    };
    for (uint32_t i = 0; i < pages; ++i) {
      const uint32_t pid = ctx.plan.pid_lo + i;
      auto fetch = pool->Fetch(ctx.Key(pid));
      if (!fetch.ok()) {
        ctx.RecordError(fetch.status());
        break;
      }
      Frame* f = fetch->frame;
      ctx.internal_frames[i] = f;
      ctx.RecordFetch(fetch->outcome, pid);
      if (fetch->outcome == BufferPool::FetchOutcome::kMiss) {
        if (run_count == kMaxRunPages) submit_run();
        if (run_count == 0) run_first = i;
        ++run_count;
        continue;
      }
      submit_run();
      // Buffered by a previous iteration's external loads or by a
      // concurrent query — the paper's Δin I/O saving either way.
      iter.internal_cache_hits++;
      if (fetch->outcome == BufferPool::FetchOutcome::kInFlight) {
        OverlapProfiler::SetRole(ThreadRole::kIoWait);
        const Status w =
            pool->WaitValid(f, options_.io_wait_timeout_millis);
        if (!w.ok()) {
          if (ctx.flight != nullptr && w.IsUnavailable()) {
            ctx.flight->Record(FlightEventType::kWaitTimeout, pid);
          }
          ctx.RecordError(w);
          break;
        }
      }
      OverlapProfiler::SetWork(/*internal_work=*/true);
      CollectCandidatesFromPage(&ctx, f->data);
    }
    submit_run();
    // The main thread drains completion callbacks while remaining reads
    // are in flight (micro-level overlap of load and candidate parsing).
    while (!ctx.group_in.Finished()) {
      OverlapProfiler::SetRole(ThreadRole::kIoWait);
      if (auto task = ctx.completions.PopFor(200)) {
        OverlapProfiler::SetWork(/*internal_work=*/true);
        (*task)();
      }
    }
    OverlapProfiler::SetWork(/*internal_work=*/true);
    if (ctx.aborted()) {
      // Fetching stops at the first failure, so the pinned frames are a
      // prefix of the area.
      const auto fetched =
          std::find(ctx.internal_frames.begin(), ctx.internal_frames.end(),
                    nullptr) -
          ctx.internal_frames.begin();
      pool->Unpin(std::span<Frame* const>(ctx.internal_frames)
                      .first(static_cast<size_t>(fetched)));
      break;
    }
    iter.internal_pages = pages;
    iter.load_seconds = load_watch.ElapsedSeconds();

    // ----- Phase B: plan the external loads (Algorithm 4) -----
    phase_span.emplace("opt", "phaseB.plan");
    perf_scope.emplace(ctx.PerfSink(&ctx.perf_b));
    Stopwatch plan_watch;
    for (uint32_t i = 0; i < pages; ++i) {
      ctx.internal_page_data[i] = ctx.internal_frames[i]->data;
    }
    Status index_status =
        ctx.internal.Build(*store_, ctx.plan, ctx.internal_page_data);
    if (!index_status.ok()) {
      ctx.RecordError(index_status);
      pool->Unpin(ctx.internal_frames);
      break;
    }

    // Group candidates into page-run chunks, then order them by
    // descending page id so the pages nearest the internal area are
    // loaded last and survive in the pool for the next iteration.
    std::vector<Chunk> chunks;
    iter.candidates = PlanChunks(&ctx, &chunks);
    if (options_.backward_external_order) {
      std::reverse(chunks.begin(), chunks.end());  // descending page id
    }
    iter.chunks = chunks.size();

    // The in-flight budget (m_ex) regulates L_now vs L_later; an
    // oversized merged chunk raises it (and the reserved pool capacity
    // grows to match).
    uint32_t largest_chunk = 0;
    for (const auto& chunk : chunks) {
      largest_chunk = std::max(largest_chunk, chunk.page_count);
    }
    {
      std::lock_guard<std::mutex> lock(ctx.later_mutex);
      ctx.later.clear();
      ctx.ext_capacity = std::max(options_.m_ex, largest_chunk);
      ctx.ext_used = 0;
      for (auto& chunk : chunks) ctx.later.push_back(std::move(chunk));
    }
    reservation.GrowTo(options_.m_in + ctx.ext_capacity + 2);
    ctx.group_ex.Add(static_cast<uint32_t>(chunks.size()));
    iter.plan_seconds = plan_watch.ElapsedSeconds();
    run_stats.serial_seconds += iter.load_seconds + iter.plan_seconds;

    // ----- Phase C: overlapped triangulation (Algorithm 3 lines 9-11) --
    phase_span.emplace("opt", "phaseC.overlap");
    perf_scope.emplace(ctx.PerfSink(&ctx.perf_c));
    Stopwatch overlap_watch;
    PumpExternal(&ctx);

    if (options_.macro_overlap) {
      std::vector<std::thread> helpers;
      helpers.emplace_back(CallbackRole, &ctx);
      for (uint32_t t = 2; t < options_.num_threads; ++t) {
        helpers.emplace_back(FlexRole, &ctx, t);
      }
      // Main thread: internal triangulation, then morph into a callback
      // drainer (or plain wait when morphing is off).
      ModelScratch* scratch = &ctx.scratch[0];
      {
        TraceSpan internal_span("opt", "internal.main");
        while (RunOneInternalUnit(&ctx, scratch)) {
        }
      }
      if (options_.thread_morphing) {
        if (!ExternalDone(&ctx)) {
          TraceInstant("morph", "morph.to_external");
          if (ctx.profiler != nullptr) ctx.profiler->RecordMorph();
          if (ctx.flight != nullptr) {
            ctx.flight->Record(FlightEventType::kMorphToExternal);
          }
        }
        DrainExternal(&ctx, /*allow_morph=*/true, scratch);
      }
      OverlapProfiler::SetRole(ThreadRole::kIoWait);
      ctx.group_ex.Wait();
      for (auto& h : helpers) h.join();
    } else {
      // OPT_serial: internal first, then external, one thread. The async
      // reads issued above progress meanwhile (micro-level overlap).
      ModelScratch* scratch = &ctx.scratch[0];
      {
        TraceSpan internal_span("opt", "internal.main");
        while (RunOneInternalUnit(&ctx, scratch)) {
        }
      }
      DrainExternal(&ctx, /*allow_morph=*/false, scratch);
      OverlapProfiler::SetRole(ThreadRole::kIoWait);
      ctx.group_ex.Wait();
    }
    phase_span.reset();
    perf_scope.reset();
    if (options_.collect_perf && CurrentTraceRecorder() != nullptr) {
      // Counter tracks next to the PR 5 overlap tracks: cumulative CPU
      // per phase (stacked staircase) plus the run's efficiency ratios.
      const PerfReading pa = ctx.perf_a.Snapshot();
      const PerfReading pb = ctx.perf_b.Snapshot();
      const PerfReading pc = ctx.perf_c.Snapshot();
      TraceCounter(
          "perf", "perf.task_clock_ms",
          "\"phaseA\":" + std::to_string(pa.task_clock_ns / 1000000) +
              ",\"phaseB\":" + std::to_string(pb.task_clock_ns / 1000000) +
              ",\"phaseC\":" + std::to_string(pc.task_clock_ns / 1000000));
      PerfReading sum = pa;
      sum.Accumulate(pb);
      sum.Accumulate(pc);
      if (sum.cycles > 0) {
        TraceCounter("perf", "perf.ipc",
                     "\"ipc\":" + std::to_string(sum.Ipc()));
      }
      if (sum.llc_loads > 0) {
        TraceCounter(
            "perf", "perf.llc_miss_pct",
            "\"pct\":" + std::to_string(sum.LlcMissRate() * 100.0));
      }
    }
    iter.overlap_seconds = overlap_watch.ElapsedSeconds();
    run_stats.parallel_seconds += iter.overlap_seconds;

    // ----- Phase D: unpin the internal area (Algorithm 3 lines 12-13) --
    pool->Unpin(ctx.internal_frames);

    iter.internal_cpu_seconds =
        static_cast<double>(ctx.internal_cpu_nanos.load()) * 1e-9;
    iter.external_cpu_seconds =
        static_cast<double>(ctx.external_cpu_nanos.load()) * 1e-9;
    iter.external_pages = ctx.external_pages.load();
    iter.external_cache_hits = ctx.external_hits.load();
    iter.intersect = IntersectCounters::Delta(SnapshotIntersectCounters(),
                                              intersect_start);
    run_stats.intersect.Accumulate(iter.intersect);

    run_stats.iterations++;
    run_stats.internal_pages_read +=
        iter.internal_pages - iter.internal_cache_hits;
    run_stats.internal_cache_hits += iter.internal_cache_hits;
    run_stats.external_pages_read += iter.external_pages;
    run_stats.external_cache_hits += iter.external_cache_hits;
    run_stats.per_iteration.push_back(iter);

    if (ctx.aborted()) break;
    v_start = ctx.plan.v_hi + 1;
  }

  run_stats.perf_backend = ActivePerfBackend();
  run_stats.perf_phase_a = ctx.perf_a.Snapshot();
  run_stats.perf_phase_b = ctx.perf_b.Snapshot();
  run_stats.perf_phase_c = ctx.perf_c.Snapshot();

  // Publish the run's page accounting into the live registry whether the
  // run succeeded or aborted — partial I/O still happened and the Δin/Δex
  // identity must account for it.
  PublishRunStats(run_stats);

  {
    std::lock_guard<std::mutex> lock(ctx.error_mutex);
    if (!ctx.first_error.ok()) {
      // Unrecoverable *device* faults (retry budget exhausted on EIO,
      // waiter timed out) degrade this query, not the process: the
      // typed Unavailable tells the service layer the store is intact
      // and a retry may succeed. Corruption is different — a page whose
      // CRC still fails after every reread is data damage, not device
      // flakiness — so it keeps its code (VerifyAllPages locates it)
      // instead of inviting clients to retry forever against a damaged
      // store. Cancellation, planning errors, and sink failures keep
      // their own codes too.
      if (ctx.first_error.IsIOError() || ctx.first_error.IsUnavailable()) {
        const Status degraded =
            Status::Unavailable("triangulation degraded by I/O fault: " +
                                ctx.first_error.ToString());
        if (ctx.flight != nullptr) {
          ctx.flight->Record(FlightEventType::kDegrade,
                             static_cast<uint64_t>(degraded.code()));
        }
        return degraded;
      }
      return ctx.first_error;
    }
  }
  OPT_RETURN_IF_ERROR(sink->Finish());
  run_stats.elapsed_seconds = total_watch.ElapsedSeconds();
  if (profiler.has_value()) {
    profiler->Stop();
    run_stats.profiled = true;
    run_stats.overlap = profiler->Report();
    // Fit the cost model (§3.3): c is the measured device time per page
    // read (a run read with one command shares its time among its
    // pages); Cost(ideal) is the run's CPU work plus one sequential
    // pass over the internal areas; the prediction adds c(Δex − Δin)
    // where Δin is pages the pool saved the internal fill and Δex is
    // pages the external loads actually re-read.
    const AsyncIoStats& io = engine.stats();
    const uint64_t pages_read =
        io.pages_read.load(std::memory_order_relaxed);
    const double c =
        pages_read == 0
            ? 0.0
            : static_cast<double>(
                  io.read_micros.load(std::memory_order_relaxed)) *
                  1e-6 / static_cast<double>(pages_read);
    double cpu_seconds = 0;
    for (const IterationStats& iter : run_stats.per_iteration) {
      cpu_seconds += iter.internal_cpu_seconds + iter.external_cpu_seconds;
    }
    const uint64_t one_pass_pages =
        run_stats.internal_pages_read + run_stats.internal_cache_hits;
    OverlapCostModel& cost = run_stats.overlap.cost;
    cost.c_seconds_per_page = c;
    cost.delta_in_pages = run_stats.internal_cache_hits;
    cost.delta_ex_pages = run_stats.external_pages_read;
    cost.ideal_seconds =
        cpu_seconds + c * static_cast<double>(one_pass_pages);
    cost.predicted_seconds =
        cost.ideal_seconds +
        c * (static_cast<double>(cost.delta_ex_pages) -
             static_cast<double>(cost.delta_in_pages));
    cost.measured_seconds = run_stats.elapsed_seconds;
    cost.residual_seconds = cost.measured_seconds - cost.predicted_seconds;
  }
  if (stats != nullptr) *stats = std::move(run_stats);
  return Status::OK();
}

}  // namespace opt
