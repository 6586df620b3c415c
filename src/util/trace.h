// Thread-safe span recorder emitting Chrome trace_event JSON, so a full
// OPT run — phase-A internal load, internal/external triangulation,
// thread-morph events, async-read submit/complete, per-query service
// handling — can be opened in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing.
//
// Model: one process-global recorder slot. Tracing is off (and spans are
// near-free: one relaxed atomic load) until StartTracing() installs a
// recorder; instrumentation sites use the RAII TraceSpan / TraceInstant
// helpers and never check the flag themselves. StopTracing() detaches
// the recorder; the caller then serializes with ToJson()/WriteJson().
//
// Distributed tracing: every request carries a 64-bit `trace_id` plus
// the `span_id` of its parent span across the wire (the last two fields
// of each request payload). Each process keeps
// a thread-local TraceContext {trace_id, current span_id}; TraceSpan
// pushes itself as the current span so children — including spans on a
// remote shard that received the ids over the wire — link into one
// tree. AssembleTrace() merges per-process event dumps (drained via the
// TRACE_PULL wire op) into a single Perfetto JSON with cross-process
// flow arrows.
//
// Storage is a fixed-capacity ring keeping the *most recent* events;
// overwritten events are counted in dropped() and in the process-wide
// `trace.dropped_spans` counter, so long soaks cannot grow the heap.
//
// Lifetime rule: stop tracing only after all traced work has finished —
// a TraceSpan captures the recorder pointer at construction (so a span
// straddling StopTracing writes into a recorder the caller still owns,
// but a span straddling the recorder's *destruction* would dangle).
// opt_server obeys this by stopping the scheduler before writing the
// trace file.
#ifndef OPT_UTIL_TRACE_H_
#define OPT_UTIL_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace opt {

struct TraceEvent {
  std::string name;
  std::string category;
  char phase = 'X';        // 'X' complete, 'i' instant, 'C' counter sample
  uint64_t ts_micros = 0;  // since recorder construction
  uint64_t dur_micros = 0; // complete spans only
  uint32_t tid = 0;        // small per-thread id (stable within a process)
  uint64_t trace_id = 0;        // request tree this event belongs to (0 = none)
  uint64_t span_id = 0;         // this span's own id ('X' phases)
  uint64_t parent_span_id = 0;  // parent span (possibly in another process)
  std::string args_json;   // pre-rendered JSON object body, e.g. "\"k\":1"
};

/// Ambient per-thread trace position: which request tree we are in and
/// which span is the current parent for new children. Crossing a thread
/// or process boundary means capturing this on one side and installing
/// it (TraceContextScope) on the other.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
};

/// The calling thread's current context ({0,0} when untraced).
TraceContext CurrentTraceContext();

/// RAII installer for a propagated context (worker threads, fan-out
/// lambdas, server connection handlers). Restores the previous context
/// on destruction.
class TraceContextScope {
 public:
  explicit TraceContextScope(TraceContext context);
  ~TraceContextScope();

  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext saved_;
};

/// Fresh nonzero ids, unique across cooperating processes (mixes the
/// pid into the hash input).
uint64_t NewTraceId();
uint64_t NewSpanId();

class TraceRecorder {
 public:
  /// Fixed-capacity ring: once full, the oldest event is overwritten
  /// and counted in dropped() (and the process-wide
  /// `trace.dropped_spans` metric), bounding memory under pathological
  /// span rates while keeping the most recent — most useful — window.
  explicit TraceRecorder(size_t max_events = 1u << 20);

  void RecordComplete(std::string name, const char* category,
                      uint64_t ts_micros, uint64_t dur_micros,
                      uint64_t trace_id, uint64_t span_id,
                      uint64_t parent_span_id, std::string args_json);
  void RecordInstant(std::string name, const char* category,
                     std::string args_json);
  /// Counter-track sample ('C' phase): Perfetto renders successive
  /// samples of the same name as a stacked counter track. `args_json`
  /// holds the series values, e.g. "\"internal\":2,\"external\":1".
  void RecordCounter(std::string name, const char* category,
                     std::string args_json);

  /// Microseconds since this recorder was constructed (the trace clock).
  uint64_t NowMicros() const;
  /// CLOCK_REALTIME at construction, in microseconds — lets a trace
  /// assembler align events from recorders born in different processes.
  uint64_t unix_origin_micros() const { return unix_origin_micros_; }

  /// Events oldest-first.
  std::vector<TraceEvent> Events() const;
  /// Events oldest-first, removing them from the ring (the TRACE_PULL
  /// drain). dropped() keeps accumulating across drains.
  std::vector<TraceEvent> Drain();
  size_t dropped() const;

  /// {"traceEvents":[...]} — the Chrome trace_event JSON object format.
  std::string ToJson() const;
  Status WriteJson(const std::string& path) const;

 private:
  void Record(TraceEvent event);
  std::vector<TraceEvent> SnapshotLocked() const;

  const size_t max_events_;
  const std::chrono::steady_clock::time_point start_;
  uint64_t unix_origin_micros_ = 0;
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;  // ring once size() == max_events_
  size_t next_ = 0;                 // ring write cursor
  bool wrapped_ = false;
  size_t dropped_ = 0;
};

/// One process's drained events plus the metadata the assembler needs:
/// the real pid, a human label for the Perfetto process row, and the
/// wall-clock origin of the process's trace clock.
struct ProcessTrace {
  uint64_t pid = 0;
  std::string label;
  uint64_t unix_origin_micros = 0;
  uint64_t dropped_spans = 0;
  std::vector<TraceEvent> events;
};

/// Merges per-process dumps into one Perfetto-openable JSON: timestamps
/// are rebased onto a shared wall-clock axis, every process gets a
/// process_name metadata row, span ids ride in args as hex, and a
/// flow arrow ('s' → 'f') is emitted for every parent/child span pair
/// that crosses a process boundary.
std::string AssembleTrace(const std::vector<ProcessTrace>& parts);

/// Installs `recorder` (not owned) as the process-wide trace sink.
void StartTracing(TraceRecorder* recorder);
/// Detaches the current recorder (does not destroy it).
void StopTracing();
/// The active recorder, or nullptr when tracing is off.
TraceRecorder* CurrentTraceRecorder();

/// Escapes a string for embedding inside JSON quotes.
std::string JsonEscape(const std::string& text);

/// RAII complete-span: records [construction, destruction) on the
/// calling thread if tracing was on at construction. While alive it is
/// the thread's current span (children — local or remote — parent to
/// it); span-id bookkeeping also runs with no local recorder when an
/// ambient trace_id is present, so an untraced middle hop still links
/// its upstream caller to its downstream callees.
class TraceSpan {
 public:
  TraceSpan(const char* category, std::string name,
            std::string args_json = std::string());
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  uint64_t trace_id() const;
  /// This span's id — what a child sent over the wire should use as its
  /// parent_span_id. 0 when the span is inert (no recorder, no context).
  uint64_t span_id() const;

 private:
  TraceRecorder* recorder_;
  bool active_ = false;
  TraceContext parent_;   // restored on destruction
  TraceContext context_;  // installed while alive
  const char* category_;
  std::string name_;
  std::string args_json_;
  uint64_t start_micros_ = 0;
};

/// One-off instant event (thread morphs, async-read submits). Tagged
/// with the calling thread's current trace context.
void TraceInstant(const char* category, std::string name,
                  std::string args_json = std::string());

/// One counter-track sample (overlap profiler gauges).
void TraceCounter(const char* category, std::string name,
                  std::string args_json);

}  // namespace opt

#endif  // OPT_UTIL_TRACE_H_
