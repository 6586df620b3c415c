#include "core/record_encoder.h"

#include <atomic>
#include <utility>

#include "util/coding.h"

namespace opt {

namespace {

constexpr size_t kRecordSlack = 4096;

size_t ThisThreadSlot() {
  static std::atomic<size_t> next_slot{0};
  thread_local const size_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed) %
      NestedRecordEncoder::kSlots;
  return slot;
}

}  // namespace

NestedRecordEncoder::NestedRecordEncoder(size_t block_bytes,
                                         size_t prefix_bytes,
                                         BlockHandler handler)
    : block_bytes_(block_bytes),
      prefix_bytes_(prefix_bytes),
      handler_(std::move(handler)) {}

bool NestedRecordEncoder::Emit(VertexId u, VertexId v,
                               std::span<const VertexId> ws) {
  if (ws.empty()) return true;
  char header[12];
  EncodeFixed32(header, u);
  EncodeFixed32(header + 4, v);
  EncodeFixed32(header + 8, static_cast<uint32_t>(ws.size()));
  Slot& slot = slots_[ThisThreadSlot()];
  std::lock_guard<std::mutex> lock(slot.mutex);
  if (slot.closed) return false;
  if (slot.records == 0) {
    // A fresh or recycled block: reserve once, with room for the record
    // that crosses the threshold, so only an oversized record regrows it.
    slot.block.reserve(block_bytes_ + kRecordSlack);
    slot.block.assign(prefix_bytes_, '\0');
  }
  slot.block.append(header, sizeof(header));
  slot.block.append(reinterpret_cast<const char*>(ws.data()),
                    ws.size() * sizeof(VertexId));
  ++slot.records;
  slot.triangles += ws.size();
  if (slot.block.size() >= block_bytes_) HandOffLocked(slot);
  return true;
}

void NestedRecordEncoder::Close() {
  for (Slot& slot : slots_) {
    std::lock_guard<std::mutex> lock(slot.mutex);
    if (slot.closed) continue;
    slot.closed = true;
    if (slot.records > 0) HandOffLocked(slot);
  }
}

void NestedRecordEncoder::HandOffLocked(Slot& slot) {
  handler_(slot.block, slot.records, slot.triangles);
  slot.block.clear();
  slot.records = 0;
  slot.triangles = 0;
}

}  // namespace opt
