// Benchmark-owned instrumentation for the traced run: decorators around
// the public entry points of the storage (Env) and sink (TriangleSink)
// layers, recording spans into a benchmark-owned opt::TraceRecorder. The
// recorder is never installed with StartTracing, so the program's own
// tracing stays off: the spans are recorded around calls into each layer,
// from outside it.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/triangle_sink.h"
#include "storage/env.h"
#include "util/status.h"
#include "util/trace.h"

namespace perfbench {

/// Per span name: summed self time (duration minus the part its
/// children cover), in seconds.
std::map<std::string, double> SelfSeconds(
    const std::vector<opt::TraceEvent>& events);

/// Wall time of the root spans (trace id set, no parent) not covered by
/// any other span of the same trace id, in seconds.
double UnattributedSeconds(const std::vector<opt::TraceEvent>& events);

/// Span parent for work a layer does on threads the benchmark does not
/// own (I/O workers, the listing writer): the query or repetition that is
/// running. Zero ids leave such spans unparented.
struct SpanContext {
  std::atomic<uint64_t> trace_id{0};
  std::atomic<uint64_t> parent_id{0};
};

/// Timing decorator around an Env. Every positioned read is timed;
/// back-to-back reads on one thread under one parent (gap below 20 µs)
/// merge into one "storage.read" span so the trace stays small. Appends
/// are timed as "sink.write" spans (the listing writer's output path).
class TimingEnv : public opt::Env {
 public:
  TimingEnv(opt::Env* base, opt::TraceRecorder* recorder,
            const SpanContext* context);

  opt::Result<std::unique_ptr<opt::RandomAccessFile>> OpenRandomAccess(
      const std::string& path) override;
  opt::Result<std::unique_ptr<opt::WritableFile>> OpenWritable(
      const std::string& path) override;
  opt::Result<uint64_t> FileSize(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  opt::Status DeleteFile(const std::string& path) override;

  /// Off: calls pass straight through, nothing is recorded.
  void set_enabled(bool enabled) { enabled_.store(enabled); }

  struct Totals {
    uint64_t reads = 0;
    uint64_t read_bytes = 0;
    double read_busy_s = 0;
    std::vector<double> read_us;  // one entry per read
    double write_busy_s = 0;
  };
  /// Closes open read spans and returns (and clears) the totals. Spans
  /// closed here carry the calling thread's tid.
  Totals Take();

  using Clock = std::chrono::steady_clock;
  void RecordRead(Clock::time_point start, Clock::time_point end,
                  size_t bytes);
  void RecordWrite(Clock::time_point start, Clock::time_point end,
                   size_t bytes);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

 private:
  struct OpenSpan {
    uint64_t start_us = 0;  // on the recorder's clock
    uint64_t end_us = 0;
    uint64_t reads = 0;
    uint64_t trace_id = 0;
    uint64_t parent_id = 0;
  };
  uint64_t RecorderMicros(Clock::time_point t) const;
  void CloseLocked(const OpenSpan& open);

  opt::Env* const base_;
  opt::TraceRecorder* const recorder_;
  const SpanContext* const context_;
  // The recorder's clock at origin_, to place Clock readings on it.
  const Clock::time_point origin_;
  const uint64_t origin_us_;
  std::atomic<bool> enabled_{true};
  std::mutex mutex_;
  std::map<uint32_t, OpenSpan> open_;  // per thread
  Totals totals_;
};

/// Timing decorator in front of a TriangleSink: counts Emit calls and
/// their busy time, and times every Finish call (OptRunner::Run calls it
/// itself), recording each as a "sink.finish" span parented by
/// `context`. Emit is too frequent for spans.
class TimingSink : public opt::TriangleSink {
 public:
  TimingSink(opt::TriangleSink* inner, opt::TraceRecorder* recorder,
             const SpanContext* context)
      : inner_(inner), recorder_(recorder), context_(context) {}

  void Emit(opt::VertexId u, opt::VertexId v,
            std::span<const opt::VertexId> ws) override;
  opt::Status Finish() override;

  uint64_t emit_calls() const { return calls_.load(); }
  double emit_busy_s() const { return busy_ns_.load() * 1e-9; }
  double finish_s() const { return finish_ns_ * 1e-9; }

 private:
  opt::TriangleSink* const inner_;
  opt::TraceRecorder* const recorder_;
  const SpanContext* const context_;
  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> busy_ns_{0};
  uint64_t finish_ns_ = 0;
};

/// RAII complete span on the calling thread; inert without a recorder.
class ScopedSpan {
 public:
  ScopedSpan(opt::TraceRecorder* recorder, std::string name,
             uint64_t trace_id, uint64_t parent_id);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_id_; }

 private:
  opt::TraceRecorder* const recorder_;
  std::string name_;
  uint64_t trace_id_ = 0;
  uint64_t parent_id_ = 0;
  uint64_t span_id_ = 0;
  uint64_t start_us_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
