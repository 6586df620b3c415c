// Asynchronous page-read engine — the paper's AsyncRead(pid, Callback,
// Args) primitive (§3.2). A pool of I/O worker threads emulates the
// FlashSSD's internal parallelism (queue depth); on completion of a read
// the engine enqueues the registered callback on a *completion queue*
// that the framework's callback thread drains. Decoupling completion
// delivery (a queue) from callback execution (whoever pops) is what makes
// the paper's thread morphing possible: when the main thread runs out of
// internal work it simply starts popping completions too.
#ifndef OPT_STORAGE_ASYNC_IO_H_
#define OPT_STORAGE_ASYNC_IO_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "util/blocking_queue.h"
#include "util/status.h"

namespace opt {

/// Counts in-flight operations; Wait() returns when the count drops to
/// zero. Callbacks may Add() more work before their own Done() (the
/// chained reads of Algorithm 9), so the count can rise and fall freely.
class CompletionGroup {
 public:
  void Add(uint32_t n = 1) {
    count_.fetch_add(n, std::memory_order_acq_rel);
  }

  void Done() {
    if (count_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(mutex_);
      cv_.notify_all();
    }
  }

  bool Finished() const {
    return count_.load(std::memory_order_acquire) == 0;
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return Finished(); });
  }

 private:
  std::atomic<uint32_t> count_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
};

/// A unit of post-I/O work, executed by whoever drains the queue.
using CompletionTask = std::function<void()>;
using CompletionQueue = BlockingQueue<CompletionTask>;

/// Bounded retry with exponential backoff for page reads. Transient
/// device faults (EIO that heals, torn reads caught by CRC validation)
/// are retried inside the I/O worker before anything is published to
/// waiters; only exhausted budgets surface as errors. Backoff doubles
/// from `backoff_base_micros` up to `backoff_max_micros` with
/// deterministic jitter (hashed from page id and attempt, so reruns of
/// a seeded fault plan behave identically). `op_deadline_micros` caps
/// one page's total read time including retries — past it the op gives
/// up even if attempts remain.
struct IoRetryPolicy {
  uint32_t max_attempts = 4;
  uint32_t backoff_base_micros = 100;
  uint32_t backoff_max_micros = 20000;
  uint64_t op_deadline_micros = 2000000;  // 0 = no per-op deadline

  /// A policy that fails immediately (the pre-retry behavior).
  static IoRetryPolicy None() {
    IoRetryPolicy policy;
    policy.max_attempts = 1;
    return policy;
  }
};

/// A read of `page_count` consecutive pages starting at `first_pid`, each
/// into its own (already pinned) frame. A multi-page request is one run:
/// the worker reads it with one vectored device read, then walks its
/// pages in order, re-reading alone (under the retry policy) each page
/// that read did not deliver intact. The first page that still fails
/// fails it and every later page of the run.
struct ReadRequest {
  PageFile* file = nullptr;
  uint32_t first_pid = 0;
  uint32_t page_count = 1;
  std::vector<Frame*> frames;  // page_count entries, pre-pinned
  /// Runs on a completion-queue drainer after all pages are read.
  std::function<void(const Status&)> callback;
  CompletionQueue* completion_queue = nullptr;
  /// When set, the I/O worker itself publishes every frame — validating
  /// the page CRC if `validate` — via MarkValid/MarkFailed, once for the
  /// whole run, *before* queueing the completion. Required when `frames`
  /// live in a pool shared with concurrent queries: their WaitValid()
  /// must never depend on this query draining its completion queue. The
  /// engine also holds its own pin on each frame from Submit until
  /// publication, so a frame whose page was evicted by a WaitValid
  /// timeout (and whose other pins all dropped) can never be recycled to
  /// a different page while the worker still writes into it.
  BufferPool* pool = nullptr;
  bool validate = false;
  uint32_t page_size = 0;  // for validation; defaults to file page size
  /// When set, retry/giveup/error outcomes of this request's pages are
  /// recorded as flight events for the owning query's postmortem tail.
  /// Must outlive the request's completion.
  FlightRecorder* flight = nullptr;
};

struct AsyncIoStats {
  /// Requests submitted: one per run of pages, not per page.
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> pages_read{0};
  /// Final failures only: a page whose retry budget ran out (each also
  /// counts one `giveups`) or a non-retryable error (OutOfRange,
  /// InvalidArgument, ...). Individual failed attempts count `retries`.
  std::atomic<uint64_t> read_errors{0};
  std::atomic<uint64_t> retries{0};
  std::atomic<uint64_t> giveups{0};
  /// Wall-micros of the device reads that delivered pages: each batched
  /// run read counts once, each per-page read (fallback or single-page
  /// request) with its retries. read_micros / pages_read is the device
  /// time per page that fits the cost model's `c` (DESIGN.md §9).
  std::atomic<uint64_t> read_micros{0};
  void Reset() {
    requests = 0;
    pages_read = 0;
    read_errors = 0;
    retries = 0;
    giveups = 0;
    read_micros = 0;
  }
};

class AsyncIoEngine {
 public:
  /// `num_workers` concurrent I/O threads (the emulated SSD queue depth).
  explicit AsyncIoEngine(uint32_t num_workers,
                         const IoRetryPolicy& retry = IoRetryPolicy());
  ~AsyncIoEngine();

  AsyncIoEngine(const AsyncIoEngine&) = delete;
  AsyncIoEngine& operator=(const AsyncIoEngine&) = delete;

  /// Submits an asynchronous read. On completion, pushes a task invoking
  /// request.callback(status) onto request.completion_queue.
  void Submit(ReadRequest request);

  AsyncIoStats& stats() { return stats_; }
  uint32_t num_workers() const { return static_cast<uint32_t>(workers_.size()); }

  const IoRetryPolicy& retry_policy() const { return retry_; }

 private:
  void WorkerLoop();
  /// The batched first attempt at a multi-page run: one device read
  /// into every frame. True when it delivered the pages (each still
  /// needs its CRC checked). The attempt is charged to no page's retry
  /// budget; single-page requests skip it.
  bool ReadRun(const ReadRequest& request, std::vector<char*>* dsts);
  /// Checks the CRC of the page at `index` when the request validates;
  /// OK otherwise.
  Status CheckPage(const ReadRequest& request, uint32_t index) const;
  /// One page's read + (optional) CRC validation under the retry policy.
  Status ReadPageWithRetry(const ReadRequest& request, uint32_t index);

  const IoRetryPolicy retry_;
  BlockingQueue<ReadRequest> submissions_;
  std::vector<std::thread> workers_;
  AsyncIoStats stats_;
};

}  // namespace opt

#endif  // OPT_STORAGE_ASYNC_IO_H_
