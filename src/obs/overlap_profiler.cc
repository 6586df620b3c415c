#include "obs/overlap_profiler.h"

#include <string>

#include "util/metrics.h"
#include "util/trace.h"

namespace opt {

namespace {

/// The calling thread's registered slot, or nullptr.
thread_local OverlapProfiler* tls_profiler = nullptr;
thread_local std::atomic<uint8_t>* tls_role = nullptr;
thread_local std::atomic<uint64_t>* tls_last_update = nullptr;
thread_local ThreadRole tls_home = ThreadRole::kIdle;

bool IsCpuRole(ThreadRole role) {
  return role == ThreadRole::kInternal || role == ThreadRole::kExternal ||
         role == ThreadRole::kMorphedInternal ||
         role == ThreadRole::kMorphedExternal;
}

bool IsInternalSide(ThreadRole role) {
  return role == ThreadRole::kInternal ||
         role == ThreadRole::kMorphedInternal;
}

bool IsExternalSide(ThreadRole role) {
  return role == ThreadRole::kExternal ||
         role == ThreadRole::kMorphedExternal;
}

}  // namespace

const char* ThreadRoleName(ThreadRole role) {
  switch (role) {
    case ThreadRole::kIdle:
      return "idle";
    case ThreadRole::kInternal:
      return "internal";
    case ThreadRole::kExternal:
      return "external";
    case ThreadRole::kMorphedInternal:
      return "morphed_internal";
    case ThreadRole::kMorphedExternal:
      return "morphed_external";
    case ThreadRole::kIoWait:
      return "io_wait";
  }
  return "unknown";
}

OverlapProfiler::OverlapProfiler() : OverlapProfiler(Options()) {}

OverlapProfiler::OverlapProfiler(const Options& options)
    : options_(options),
      slots_(options.max_threads == 0 ? 1 : options.max_threads),
      origin_(std::chrono::steady_clock::now()) {
  report_.period_micros = options_.period_micros;
  coarse_now_micros_.store(NowMicros(), std::memory_order_relaxed);
  sampler_ = std::thread([this] { SamplerLoop(); });
}

OverlapProfiler::~OverlapProfiler() { Stop(); }

uint64_t OverlapProfiler::NowMicros() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count());
}

void OverlapProfiler::Stop() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopped_) return;
    // The sampler takes its first sample as it starts; waiting for it
    // gives a run shorter than one period a sample too.
    cv_.wait(lock, [&] { return report_.samples > 0; });
    stop_requested_ = true;
    cv_.notify_all();
  }
  sampler_.join();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopped_ = true;
  }
}

OverlapReport OverlapProfiler::Report() const {
  OverlapReport report = report_;
  report.morph_events = morphs_.load(std::memory_order_relaxed);
  return report;
}

void OverlapProfiler::SamplerLoop() {
  Counter* const stalled_counter =
      Metrics().GetCounter("profiler.stalled_samples");
  Gauge* const inflight_gauge = Metrics().GetGauge("io.inflight_depth");
  Counter* const pages_read_counter = Metrics().GetCounter("io.pages_read");
  const uint64_t stall_micros =
      static_cast<uint64_t>(options_.stall_periods) * options_.period_micros;
  uint64_t last_pages_read = pages_read_counter->value();
  std::unique_lock<std::mutex> lock(mutex_);
  // Sample first, then wait a period: the first sample is taken at start.
  for (;;) {
    const uint64_t now = NowMicros();
    coarse_now_micros_.store(now, std::memory_order_relaxed);
    uint32_t internal_active = 0;
    uint32_t external_active = 0;
    uint32_t cpu_active = 0;
    for (Slot& slot : slots_) {
      if (!slot.in_use.load(std::memory_order_acquire)) continue;
      const auto role = static_cast<ThreadRole>(
          slot.role.load(std::memory_order_relaxed));
      const uint64_t updated =
          slot.last_update_micros.load(std::memory_order_relaxed);
      if (now > updated && now - updated > stall_micros) {
        ++report_.stalled_samples;
        stalled_counter->Increment();
        continue;  // stale role: do not credit it to anything
      }
      ++report_.role_samples[static_cast<size_t>(role)];
      if (IsCpuRole(role)) ++cpu_active;
      if (IsInternalSide(role)) ++internal_active;
      if (IsExternalSide(role)) ++external_active;
    }
    const int64_t inflight = inflight_gauge->value();
    const uint64_t pages_read = pages_read_counter->value();
    // Fast devices complete reads between samples; pages finished during
    // the window are just as much evidence of in-flight I/O as a read
    // caught mid-air by the gauge.
    const bool io_busy = inflight > 0 || pages_read > last_pages_read;
    last_pages_read = pages_read;
    ++report_.samples;
    if (cpu_active > 0) ++report_.cpu_active_samples;
    if (io_busy) ++report_.io_inflight_samples;
    if (cpu_active > 0 && io_busy) ++report_.micro_overlap_samples;
    if (internal_active > 0 && external_active > 0) {
      ++report_.macro_overlap_samples;
    }
    if (options_.trace_counters && CurrentTraceRecorder() != nullptr) {
      TraceCounter("overlap", "overlap.cpu_roles",
                   "\"internal\":" + std::to_string(internal_active) +
                       ",\"external\":" + std::to_string(external_active));
      TraceCounter("overlap", "overlap.io_inflight",
                   "\"value\":" + std::to_string(inflight > 0 ? inflight : 0));
    }
    if (report_.samples == 1) cv_.notify_all();  // Stop() waits for it
    cv_.wait_for(lock, std::chrono::microseconds(options_.period_micros),
                 [&] { return stop_requested_; });
    if (stop_requested_) return;
  }
}

OverlapProfiler::ThreadScope::ThreadScope(OverlapProfiler* profiler,
                                          ThreadRole home)
    : profiler_(profiler) {
  if (profiler_ == nullptr) return;
  for (size_t i = 0; i < profiler_->slots_.size(); ++i) {
    bool expected = false;
    if (profiler_->slots_[i].in_use.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel)) {
      slot_index_ = i;
      Slot& slot = profiler_->slots_[i];
      slot.home = home;
      slot.role.store(static_cast<uint8_t>(home), std::memory_order_relaxed);
      slot.last_update_micros.store(profiler_->NowMicros(),
                                    std::memory_order_relaxed);
      tls_profiler = profiler_;
      tls_role = &slot.role;
      tls_last_update = &slot.last_update_micros;
      tls_home = home;
      return;
    }
  }
  profiler_ = nullptr;  // no free slot: profile without this thread
}

OverlapProfiler::ThreadScope::~ThreadScope() {
  if (profiler_ == nullptr) return;
  tls_profiler = nullptr;
  tls_role = nullptr;
  tls_last_update = nullptr;
  tls_home = ThreadRole::kIdle;
  Slot& slot = profiler_->slots_[slot_index_];
  slot.role.store(static_cast<uint8_t>(ThreadRole::kIdle),
                  std::memory_order_relaxed);
  slot.in_use.store(false, std::memory_order_release);
}

void OverlapProfiler::SetRole(ThreadRole role) {
  if (tls_role == nullptr) return;
  tls_role->store(static_cast<uint8_t>(role), std::memory_order_relaxed);
  // The coarse clock (advanced once per sampling period) keeps this
  // call clock_gettime-free: SetRole sits in per-page hot loops, and
  // the stall guard compares against a multi-period threshold, so
  // one-period timestamp error is immaterial.
  tls_last_update->store(
      tls_profiler->coarse_now_micros_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
}

void OverlapProfiler::SetWork(bool internal_work) {
  if (tls_role == nullptr) return;
  ThreadRole role;
  if (internal_work) {
    role = tls_home == ThreadRole::kExternal ? ThreadRole::kMorphedInternal
                                             : ThreadRole::kInternal;
  } else {
    role = tls_home == ThreadRole::kInternal ? ThreadRole::kMorphedExternal
                                             : ThreadRole::kExternal;
  }
  SetRole(role);
}

}  // namespace opt
