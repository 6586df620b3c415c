#include "layers.h"

#include <algorithm>
#include <unordered_map>

namespace perfbench {

namespace {

constexpr const char* kCategory = "perfbench";

/// Read gap below which consecutive reads on one thread share a span.
constexpr uint64_t kMergeGapMicros = 20;

/// Small stable id of the calling thread, the key of its open read span.
uint32_t ThreadKey() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t key = next.fetch_add(1);
  return key;
}

uint64_t EndMicros(const opt::TraceEvent& e) {
  return e.ts_micros + e.dur_micros;
}

/// Length of the union of [start, end) intervals clipped to [lo, hi).
uint64_t CoveredMicros(std::vector<std::pair<uint64_t, uint64_t>> intervals,
                       uint64_t lo, uint64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  uint64_t covered = 0;
  uint64_t cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end <= start) continue;
    covered += end - start;
    cursor = end;
  }
  return covered;
}

class TimedFile : public opt::RandomAccessFile {
 public:
  TimedFile(std::unique_ptr<opt::RandomAccessFile> base, TimingEnv* env)
      : base_(std::move(base)), env_(env) {}

  opt::Status Read(uint64_t offset, size_t n, char* dst) const override {
    if (!env_->enabled()) return base_->Read(offset, n, dst);
    const auto start = TimingEnv::Clock::now();
    opt::Status status = base_->Read(offset, n, dst);
    env_->RecordRead(start, TimingEnv::Clock::now(), n);
    return status;
  }

 private:
  std::unique_ptr<opt::RandomAccessFile> base_;
  TimingEnv* const env_;
};

class TimedWritable : public opt::WritableFile {
 public:
  TimedWritable(std::unique_ptr<opt::WritableFile> base, TimingEnv* env)
      : base_(std::move(base)), env_(env) {}

  opt::Status Append(opt::Slice data) override {
    if (!env_->enabled()) return base_->Append(data);
    const auto start = TimingEnv::Clock::now();
    opt::Status status = base_->Append(data);
    env_->RecordWrite(start, TimingEnv::Clock::now(), data.size());
    return status;
  }
  opt::Status Sync() override { return base_->Sync(); }
  opt::Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<opt::WritableFile> base_;
  TimingEnv* const env_;
};

}  // namespace

std::map<std::string, double> SelfSeconds(
    const std::vector<opt::TraceEvent>& events) {
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
      children;
  for (const opt::TraceEvent& e : events) {
    if (e.parent_span_id != 0) {
      children[e.parent_span_id].emplace_back(e.ts_micros, EndMicros(e));
    }
  }
  std::map<std::string, double> self_s;
  for (const opt::TraceEvent& e : events) {
    uint64_t covered = 0;
    if (auto it = children.find(e.span_id); it != children.end()) {
      covered = CoveredMicros(it->second, e.ts_micros, EndMicros(e));
    }
    self_s[e.name] += (e.dur_micros - covered) * 1e-6;
  }
  return self_s;
}

double UnattributedSeconds(const std::vector<opt::TraceEvent>& events) {
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
      by_trace;
  for (const opt::TraceEvent& e : events) {
    if (e.parent_span_id != 0 && e.trace_id != 0) {
      by_trace[e.trace_id].emplace_back(e.ts_micros, EndMicros(e));
    }
  }
  uint64_t unattributed = 0;
  for (const opt::TraceEvent& e : events) {
    if (e.parent_span_id != 0 || e.trace_id == 0) continue;
    uint64_t covered = 0;
    if (auto it = by_trace.find(e.trace_id); it != by_trace.end()) {
      covered = CoveredMicros(it->second, e.ts_micros, EndMicros(e));
    }
    unattributed += e.dur_micros - covered;
  }
  return unattributed * 1e-6;
}

// ---- TimingEnv ----

TimingEnv::TimingEnv(opt::Env* base, opt::TraceRecorder* recorder,
                     const SpanContext* context)
    : base_(base),
      recorder_(recorder),
      context_(context),
      origin_(Clock::now()),
      origin_us_(recorder->NowMicros()) {}

opt::Result<std::unique_ptr<opt::RandomAccessFile>>
TimingEnv::OpenRandomAccess(const std::string& path) {
  auto file = base_->OpenRandomAccess(path);
  if (!file.ok()) return file.status();
  return std::unique_ptr<opt::RandomAccessFile>(
      new TimedFile(std::move(*file), this));
}

opt::Result<std::unique_ptr<opt::WritableFile>> TimingEnv::OpenWritable(
    const std::string& path) {
  auto file = base_->OpenWritable(path);
  if (!file.ok()) return file.status();
  return std::unique_ptr<opt::WritableFile>(
      new TimedWritable(std::move(*file), this));
}

opt::Result<uint64_t> TimingEnv::FileSize(const std::string& path) {
  return base_->FileSize(path);
}
bool TimingEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}
opt::Status TimingEnv::DeleteFile(const std::string& path) {
  return base_->DeleteFile(path);
}

uint64_t TimingEnv::RecorderMicros(Clock::time_point t) const {
  return origin_us_ + static_cast<uint64_t>(
                          std::chrono::duration_cast<std::chrono::microseconds>(
                              t - origin_)
                              .count());
}

void TimingEnv::RecordRead(Clock::time_point start, Clock::time_point end,
                           size_t bytes) {
  const uint32_t key = ThreadKey();
  const uint64_t trace_id = context_->trace_id.load(std::memory_order_relaxed);
  const uint64_t parent_id =
      context_->parent_id.load(std::memory_order_relaxed);
  const double seconds = std::chrono::duration<double>(end - start).count();
  const uint64_t start_us = RecorderMicros(start);
  const uint64_t end_us = RecorderMicros(end);
  std::lock_guard<std::mutex> lock(mutex_);
  ++totals_.reads;
  totals_.read_bytes += bytes;
  totals_.read_busy_s += seconds;
  totals_.read_us.push_back(seconds * 1e6);
  auto [it, inserted] = open_.try_emplace(key);
  OpenSpan& open = it->second;
  const bool extends = !inserted && open.trace_id == trace_id &&
                       open.parent_id == parent_id &&
                       start_us <= open.end_us + kMergeGapMicros;
  if (!extends) {
    if (!inserted) CloseLocked(open);
    open = OpenSpan{start_us, end_us, 0, trace_id, parent_id};
  }
  open.end_us = end_us;
  ++open.reads;
}

void TimingEnv::RecordWrite(Clock::time_point start, Clock::time_point end,
                            size_t bytes) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    totals_.write_busy_s += std::chrono::duration<double>(end - start).count();
  }
  const uint64_t start_us = RecorderMicros(start);
  recorder_->RecordComplete(
      "sink.write", kCategory, start_us, RecorderMicros(end) - start_us,
      context_->trace_id.load(std::memory_order_relaxed), opt::NewSpanId(),
      context_->parent_id.load(std::memory_order_relaxed),
      "\"bytes\":" + std::to_string(bytes));
}

void TimingEnv::CloseLocked(const OpenSpan& open) {
  recorder_->RecordComplete("storage.read", kCategory, open.start_us,
                            open.end_us - open.start_us, open.trace_id,
                            opt::NewSpanId(), open.parent_id,
                            "\"reads\":" + std::to_string(open.reads));
}

TimingEnv::Totals TimingEnv::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, open] : open_) CloseLocked(open);
  open_.clear();
  Totals out = std::move(totals_);
  totals_ = Totals();
  return out;
}

// ---- TimingSink ----

void TimingSink::Emit(opt::VertexId u, opt::VertexId v,
                      std::span<const opt::VertexId> ws) {
  const auto start = std::chrono::steady_clock::now();
  inner_->Emit(u, v, ws);
  const auto busy = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - start);
  calls_.fetch_add(1, std::memory_order_relaxed);
  busy_ns_.fetch_add(static_cast<uint64_t>(busy.count()),
                     std::memory_order_relaxed);
}

opt::Status TimingSink::Finish() {
  ScopedSpan span(recorder_, "sink.finish", context_->trace_id.load(),
                  context_->parent_id.load());
  const auto start = std::chrono::steady_clock::now();
  opt::Status status = inner_->Finish();
  finish_ns_ += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return status;
}

// ---- ScopedSpan ----

ScopedSpan::ScopedSpan(opt::TraceRecorder* recorder, std::string name,
                       uint64_t trace_id, uint64_t parent_id)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  name_ = std::move(name);
  trace_id_ = trace_id;
  parent_id_ = parent_id;
  span_id_ = opt::NewSpanId();
  start_us_ = recorder_->NowMicros();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  recorder_->RecordComplete(std::move(name_), kCategory, start_us_,
                            recorder_->NowMicros() - start_us_, trace_id_,
                            span_id_, parent_id_, std::string());
}

}  // namespace perfbench
