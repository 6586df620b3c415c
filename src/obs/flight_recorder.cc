#include "obs/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <thread>

namespace opt {

namespace {

/// Slot::seq while a writer owns the slot.
constexpr uint64_t kWriting = ~0ull;

size_t RoundUpPow2(size_t n) {
  size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

const char* FlightEventTypeName(FlightEventType type) {
  switch (type) {
    case FlightEventType::kNone:
      return "none";
    case FlightEventType::kFetchHit:
      return "fetch.hit";
    case FlightEventType::kFetchInFlight:
      return "fetch.inflight";
    case FlightEventType::kFetchMiss:
      return "fetch.miss";
    case FlightEventType::kIoRetry:
      return "io.retry";
    case FlightEventType::kIoGiveup:
      return "io.giveup";
    case FlightEventType::kIoError:
      return "io.error";
    case FlightEventType::kWaitTimeout:
      return "wait.timeout";
    case FlightEventType::kMorphToExternal:
      return "morph.to_external";
    case FlightEventType::kMorphStealInternal:
      return "morph.steal_internal";
    case FlightEventType::kDegrade:
      return "degrade";
    case FlightEventType::kCancel:
      return "cancel";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(RoundUpPow2(capacity)),
      slots_(new Slot[RoundUpPow2(capacity)]),
      origin_(std::chrono::steady_clock::now()) {}

uint64_t FlightRecorder::NowMicros() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count());
}

void FlightRecorder::Record(FlightEventType type, uint64_t a, uint64_t b) {
  const uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket & (capacity_ - 1)];
  // Claim the slot: a writer that laps a slow one must not mix payloads
  // with it under a sequence number a reader accepts. An event older
  // than the slot's occupant has already left the ring.
  uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  do {
    while (seq == kWriting) {
      std::this_thread::yield();
      seq = slot.seq.load(std::memory_order_relaxed);
    }
    if (seq > ticket + 1) return;
  } while (!slot.seq.compare_exchange_weak(seq, kWriting,
                                           std::memory_order_acquire,
                                           std::memory_order_relaxed));
  // Release payload stores pair with the reader's acquire loads: a
  // reader that sees any of them also sees the claim in its re-check.
  slot.t_and_type.store(
      (NowMicros() << 8) | static_cast<uint64_t>(type),
      std::memory_order_release);
  slot.a.store(a, std::memory_order_release);
  slot.b.store(b, std::memory_order_release);
  slot.seq.store(ticket + 1, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::Tail(size_t max_events) const {
  const uint64_t end = next_.load(std::memory_order_acquire);
  const uint64_t window = std::min<uint64_t>(end, capacity_);
  uint64_t first = end - window;
  if (max_events < window) first = end - max_events;
  std::vector<FlightEvent> out;
  out.reserve(static_cast<size_t>(end - first));
  for (uint64_t ticket = first; ticket < end; ++ticket) {
    const Slot& slot = slots_[ticket & (capacity_ - 1)];
    const uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (seq != ticket + 1) continue;  // overwritten or mid-write
    FlightEvent event;
    const uint64_t tt = slot.t_and_type.load(std::memory_order_acquire);
    event.a = slot.a.load(std::memory_order_acquire);
    event.b = slot.b.load(std::memory_order_acquire);
    // Re-check: if a writer lapped us mid-read the payload may be torn.
    if (slot.seq.load(std::memory_order_relaxed) != ticket + 1) continue;
    event.t_micros = tt >> 8;
    event.type = static_cast<FlightEventType>(tt & 0xFF);
    out.push_back(event);
  }
  return out;
}

std::string FlightRecorder::Render(const std::vector<FlightEvent>& events,
                                   uint64_t trace_id) {
  std::string prefix = "  ";
  if (trace_id != 0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "  [trace=%016llx] ",
                  static_cast<unsigned long long>(trace_id));
    prefix = buf;
  }
  std::string out;
  for (const FlightEvent& e : events) {
    out += prefix + "+" + std::to_string(e.t_micros) + "us " +
           FlightEventTypeName(e.type);
    switch (e.type) {
      case FlightEventType::kFetchHit:
      case FlightEventType::kFetchInFlight:
      case FlightEventType::kFetchMiss:
      case FlightEventType::kWaitTimeout:
        out += " pid=" + std::to_string(e.a);
        break;
      case FlightEventType::kIoRetry:
        out += " pid=" + std::to_string(e.a) +
               " attempt=" + std::to_string(e.b);
        break;
      case FlightEventType::kIoGiveup:
      case FlightEventType::kIoError:
        out += " pid=" + std::to_string(e.a) +
               " code=" + std::to_string(e.b);
        break;
      case FlightEventType::kDegrade:
        out += " code=" + std::to_string(e.a);
        break;
      default:
        break;
    }
    out += "\n";
  }
  return out;
}

}  // namespace opt
