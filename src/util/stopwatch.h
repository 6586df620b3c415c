// Wall-clock stopwatch used by the experiment harness, and a per-thread
// CPU-time one for the runner's phase-C CPU split.
#ifndef OPT_UTIL_STOPWATCH_H_
#define OPT_UTIL_STOPWATCH_H_

#include <time.h>

#include <chrono>
#include <cstdint>

namespace opt {

class Stopwatch {
 public:
  Stopwatch() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Elapsed time since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// CPU time the calling thread has used since construction
/// (CLOCK_THREAD_CPUTIME_ID): time spent blocked or descheduled does not
/// count. Read it on the thread that made it.
class ThreadCpuStopwatch {
 public:
  ThreadCpuStopwatch() : start_(Now()) {}

  uint64_t ElapsedNanos() const { return Now() - start_; }

 private:
  static uint64_t Now() {
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000u +
           static_cast<uint64_t>(ts.tv_nsec);
  }

  uint64_t start_;
};

/// Accumulates wall-clock time over multiple start/stop intervals; used to
/// attribute per-iteration time to the main and callback thread roles
/// (Figure 4 instrumentation).
class TimeAccumulator {
 public:
  void Start() { watch_.Restart(); running_ = true; }
  void Stop() {
    if (running_) {
      total_ += watch_.ElapsedSeconds();
      running_ = false;
    }
  }
  void Reset() { total_ = 0.0; running_ = false; }
  double TotalSeconds() const { return total_; }

 private:
  Stopwatch watch_;
  double total_ = 0.0;
  bool running_ = false;
};

}  // namespace opt

#endif  // OPT_UTIL_STOPWATCH_H_
