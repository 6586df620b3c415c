// Per-query flight recorder: a fixed-capacity ring of small structured
// events (fetch outcomes, retries, morphs, degradation, cancellation).
// Writers are the query's worker threads and the async I/O workers; an
// event costs a ticket increment, a slot claim and four stores, so the
// recorder is cheap enough to leave on for every query. The ring holds
// the *last* `capacity` events — exactly the tail a postmortem needs
// when a query comes back degraded.
//
// The reader (Tail) runs after the fact, or concurrently for a live
// dump: each slot carries a sequence word that a writer claims before
// overwriting the payload (waiting only for a writer a whole ring behind
// it on the same slot) and sets to (ticket+1) afterwards, so a reader
// can detect a slot that changed under it and skip it instead of
// reporting a torn event.
#ifndef OPT_OBS_FLIGHT_RECORDER_H_
#define OPT_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace opt {

enum class FlightEventType : uint8_t {
  kNone = 0,
  kFetchHit = 1,        // a = pid
  kFetchInFlight = 2,   // a = pid
  kFetchMiss = 3,       // a = pid
  kIoRetry = 4,         // a = pid, b = attempt
  kIoGiveup = 5,        // a = pid, b = status code
  kIoError = 6,         // a = pid, b = status code
  kWaitTimeout = 7,     // a = pid
  kMorphToExternal = 8,
  kMorphStealInternal = 9,
  kDegrade = 10,        // a = status code
  kCancel = 11,
};

const char* FlightEventTypeName(FlightEventType type);

struct FlightEvent {
  uint64_t t_micros = 0;  // since recorder construction
  FlightEventType type = FlightEventType::kNone;
  uint64_t a = 0;
  uint64_t b = 0;
};

class FlightRecorder {
 public:
  /// `capacity` is rounded up to a power of two (min 8).
  explicit FlightRecorder(size_t capacity = 256);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Lock-free, safe from any number of concurrent threads.
  void Record(FlightEventType type, uint64_t a = 0, uint64_t b = 0);

  /// The most recent events, oldest first, at most `max_events` of them.
  /// Safe to call concurrently with writers: slots being overwritten at
  /// the moment of the read are skipped rather than returned torn.
  std::vector<FlightEvent> Tail(size_t max_events = SIZE_MAX) const;

  /// Total events ever recorded (including ones the ring has dropped).
  uint64_t total_recorded() const {
    return next_.load(std::memory_order_relaxed);
  }

  size_t capacity() const { return capacity_; }

  /// Microseconds since this recorder was constructed (steady clock).
  uint64_t NowMicros() const;

  /// Distributed-tracing correlation: the owning query's propagated
  /// trace id (0 = untraced). Set once by the scheduler when the query
  /// starts; readable concurrently by whoever renders the tail.
  void set_trace_id(uint64_t trace_id) {
    trace_id_.store(trace_id, std::memory_order_relaxed);
  }
  uint64_t trace_id() const {
    return trace_id_.load(std::memory_order_relaxed);
  }

  /// Human-readable multi-line rendering, e.g. for the log. With a
  /// nonzero trace id, every line carries a [trace=<hex>] prefix so log
  /// greps and the assembled trace tree correlate.
  static std::string Render(const std::vector<FlightEvent>& events,
                            uint64_t trace_id = 0);

 private:
  struct Slot {
    /// 0 = empty, ~0 = being written, else ticket+1 of the occupant.
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> t_and_type{0};  // (t_micros << 8) | type
    std::atomic<uint64_t> a{0};
    std::atomic<uint64_t> b{0};
  };

  const size_t capacity_;  // power of two
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> next_{0};  // ticket counter
  std::atomic<uint64_t> trace_id_{0};
  const std::chrono::steady_clock::time_point origin_;
};

}  // namespace opt

#endif  // OPT_OBS_FLIGHT_RECORDER_H_
