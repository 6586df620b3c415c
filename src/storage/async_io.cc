#include "storage/async_io.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <span>
#include <thread>
#include <utility>

#include "storage/page.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace opt {

namespace {

struct IoCounters {
  Counter* requests = Metrics().GetCounter("io.requests");
  Counter* pages_read = Metrics().GetCounter("io.pages_read");
  Counter* read_errors = Metrics().GetCounter("io.read_errors");
  Counter* retries = Metrics().GetCounter("io.retries");
  Counter* giveups = Metrics().GetCounter("io.giveups");
  /// Pages submitted but not yet published — the overlap profiler
  /// samples this to detect reads in flight (micro overlap).
  Gauge* inflight = Metrics().GetGauge("io.inflight_depth");
  /// One sample per device read that delivered pages: a whole batched
  /// run, or one page with its retries. The sum is AsyncIoStats'
  /// read_micros across engines.
  HistogramMetric* page_read_us = Metrics().GetHistogram("io.page_read_us");
};

/// Transient device classes worth retrying; anything else (OutOfRange,
/// InvalidArgument, ...) is a caller bug and fails immediately.
bool IsRetryable(const Status& status) {
  return status.IsIOError() || status.IsCorruption();
}

/// Deterministic jitter: reruns with the same fault plan back off
/// identically. Full-jitter over [backoff/2, backoff].
uint32_t JitteredBackoff(uint32_t backoff, uint32_t pid, uint32_t attempt) {
  uint64_t h = (static_cast<uint64_t>(pid) << 32) | attempt;
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  const uint32_t half = backoff / 2;
  return half + static_cast<uint32_t>(h % (half + 1));
}

IoCounters& GlobalIoCounters() {
  static IoCounters counters;
  return counters;
}

std::string ReadArgsJson(const ReadRequest& request) {
  return "\"first_pid\":" + std::to_string(request.first_pid) +
         ",\"pages\":" + std::to_string(request.page_count);
}

}  // namespace

AsyncIoEngine::AsyncIoEngine(uint32_t num_workers, const IoRetryPolicy& retry)
    : retry_(retry) {
  if (num_workers == 0) num_workers = 1;
  workers_.reserve(num_workers);
  for (uint32_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

AsyncIoEngine::~AsyncIoEngine() {
  submissions_.Close();
  for (auto& w : workers_) w.join();
}

void AsyncIoEngine::Submit(ReadRequest request) {
  assert(request.file != nullptr);
  assert(request.frames.size() == request.page_count);
  assert(request.completion_queue != nullptr);
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  GlobalIoCounters().requests->Increment();
  if (CurrentTraceRecorder() != nullptr) {
    TraceInstant("io", "io.submit", ReadArgsJson(request));
  }
  // The engine holds its own pin on every pool-backed frame until the
  // worker has published it: even if every other pin drops first (a
  // WaitValid timeout evicts the page and the waiters/submitter unpin),
  // the frame cannot be recycled to another page while a worker still
  // holds a raw pointer into it.
  BufferPool* const pool = request.pool;
  const std::vector<Frame*> frames = pool != nullptr
                                         ? request.frames
                                         : std::vector<Frame*>();
  if (pool != nullptr) pool->Pin(frames);
  const uint32_t page_count = request.page_count;
  GlobalIoCounters().inflight->Add(page_count);
  if (!submissions_.Push(std::move(request))) {
    // Shutdown raced the submit: the read will never run, so publish
    // the failure (waiters must not hang on an unresolved miss) and
    // drop the engine pins taken above.
    GlobalIoCounters().inflight->Add(-static_cast<int64_t>(page_count));
    if (pool != nullptr) {
      pool->MarkFailed(frames);
      pool->Unpin(frames);
    }
  }
}

bool AsyncIoEngine::ReadRun(const ReadRequest& request,
                            std::vector<char*>* dsts) {
  if (request.page_count < 2) return false;
  dsts->clear();
  for (Frame* f : request.frames) dsts->push_back(f->data);
  const auto start = std::chrono::steady_clock::now();
  if (!request.file->ReadPages(request.first_pid, *dsts).ok()) return false;
  const uint64_t micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  stats_.read_micros.fetch_add(micros, std::memory_order_relaxed);
  GlobalIoCounters().page_read_us->Record(micros);
  return true;
}

Status AsyncIoEngine::CheckPage(const ReadRequest& request,
                               uint32_t index) const {
  if (request.pool == nullptr || !request.validate) return Status::OK();
  const uint32_t page_size = request.page_size != 0
                                 ? request.page_size
                                 : request.file->page_size();
  return PageView(request.frames[index]->data, page_size)
      .Validate(request.first_pid + index);
}

Status AsyncIoEngine::ReadPageWithRetry(const ReadRequest& request,
                                        uint32_t index) {
  const uint32_t pid = request.first_pid + index;
  const auto start = std::chrono::steady_clock::now();
  uint32_t backoff = retry_.backoff_base_micros;
  Status status;
  for (uint32_t attempt = 1;; ++attempt) {
    status = request.file->ReadPage(pid, request.frames[index]->data);
    // Validation is part of the attempt: a torn read reports OK at the
    // device layer and only the page CRC catches it, so the reread has
    // to happen here where the data is still in hand.
    if (status.ok()) status = CheckPage(request, index);
    if (status.ok()) {
      const uint64_t micros =
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count());
      stats_.read_micros.fetch_add(micros, std::memory_order_relaxed);
      GlobalIoCounters().page_read_us->Record(micros);
      return status;
    }
    if (!IsRetryable(status)) {
      // Non-retryable errors (OutOfRange, InvalidArgument, ...) are
      // caller bugs, but they are still failed page reads: count them
      // in read_errors. No giveups — no retry budget was spent.
      stats_.read_errors.fetch_add(1, std::memory_order_relaxed);
      GlobalIoCounters().read_errors->Increment();
      if (request.flight != nullptr) {
        request.flight->Record(FlightEventType::kIoError, pid,
                               static_cast<uint64_t>(status.code()));
      }
      return status;
    }
    if (attempt >= retry_.max_attempts) break;
    const uint32_t sleep_us =
        JitteredBackoff(backoff, pid, attempt);
    if (retry_.op_deadline_micros != 0) {
      const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                               std::chrono::steady_clock::now() - start)
                               .count();
      if (static_cast<uint64_t>(elapsed) + sleep_us >=
          retry_.op_deadline_micros) {
        break;  // the next attempt would blow the per-op deadline
      }
    }
    stats_.retries.fetch_add(1, std::memory_order_relaxed);
    GlobalIoCounters().retries->Increment();
    if (request.flight != nullptr) {
      request.flight->Record(FlightEventType::kIoRetry, pid, attempt);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
    backoff = std::min(backoff * 2, retry_.backoff_max_micros);
  }
  stats_.read_errors.fetch_add(1, std::memory_order_relaxed);
  stats_.giveups.fetch_add(1, std::memory_order_relaxed);
  GlobalIoCounters().read_errors->Increment();
  GlobalIoCounters().giveups->Increment();
  if (request.flight != nullptr) {
    request.flight->Record(FlightEventType::kIoGiveup, pid,
                           static_cast<uint64_t>(status.code()));
  }
  return status;
}

void AsyncIoEngine::WorkerLoop() {
  std::vector<char*> dsts;  // reused across runs
  for (;;) {
    auto item = submissions_.Pop();
    if (!item.has_value()) return;  // engine shutting down
    ReadRequest request = std::move(*item);
    // The span covers the device read + validation + frame publication:
    // what "async-read complete" means to waiters.
    TraceSpan read_span("io", "io.read",
                        CurrentTraceRecorder() != nullptr
                            ? ReadArgsJson(request)
                            : std::string());
    // One device read for the run; a page it did not deliver intact is
    // read again alone, under its own retry budget. `done` counts the
    // leading pages that are good.
    const bool delivered = ReadRun(request, &dsts);
    Status status;
    uint32_t done = 0;
    for (; done < request.page_count; ++done) {
      if (delivered && CheckPage(request, done).ok()) continue;
      status = ReadPageWithRetry(request, done);
      if (!status.ok()) break;
    }
    stats_.pages_read.fetch_add(done, std::memory_order_relaxed);
    GlobalIoCounters().pages_read->Increment(done);
    if (request.pool != nullptr) {
      const std::span<Frame* const> frames(request.frames);
      request.pool->MarkValid(frames.first(done));
      // Publish the failure so concurrent waiters on any unfinished
      // frame of this request wake with an error instead of hanging.
      if (!status.ok()) request.pool->MarkFailed(frames.subspan(done));
      // Every frame is published; release the engine pins taken at
      // Submit. Frames abandoned by all other pinners (WaitValid
      // timeout eviction) reclaim here through Unpin's orphan path.
      request.pool->Unpin(frames);
    }
    GlobalIoCounters().inflight->Add(
        -static_cast<int64_t>(request.page_count));
    auto callback = std::move(request.callback);
    request.completion_queue->Push(
        [callback = std::move(callback), status]() { callback(status); });
  }
}

}  // namespace opt
