// Per-thread encoder for the nested triangle representation (§3.2):
// records of (u, v, k, w1..wk), little-endian u32. Shared by the file
// sink (ListingSink) and the service's LIST wire sink, so both stream
// the same record bytes without a process-wide lock per Emit.
#ifndef OPT_CORE_RECORD_ENCODER_H_
#define OPT_CORE_RECORD_ENCODER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>

#include "core/triangle.h"

namespace opt {

/// Encodes records into a fixed set of cache-line-aligned slots. A
/// thread always encodes into the same slot (a thread-local index taken
/// once from a process-wide counter), so a slot's mutex is uncontended
/// unless more threads emit than there are slots. When a slot's block
/// reaches `block_bytes` it is handed, whole, to the block handler.
///
/// Ordering: every record is whole within one block, and a thread's own
/// records reach the handler in the order it emitted them. Order across
/// threads is unspecified.
class NestedRecordEncoder {
 public:
  static constexpr size_t kSlots = 16;

  /// Receives a full (or, from Close, partial) block with the slot's
  /// lock held. `block` starts with `prefix_bytes` zero bytes the
  /// handler may patch (the wire sink writes the record count there),
  /// followed by `records` records holding `triangles` triangles. The
  /// handler may swap `block` for another string (a recycled buffer);
  /// whatever it leaves in `block` is cleared and reused by the slot.
  using BlockHandler = std::function<void(std::string& block,
                                          uint32_t records,
                                          uint64_t triangles)>;

  NestedRecordEncoder(size_t block_bytes, size_t prefix_bytes,
                      BlockHandler handler);
  NestedRecordEncoder(const NestedRecordEncoder&) = delete;
  NestedRecordEncoder& operator=(const NestedRecordEncoder&) = delete;

  /// Encodes <u, v, {ws}> into the calling thread's slot. Returns false,
  /// encoding nothing, once Close() has run. An empty `ws` is a no-op.
  bool Emit(VertexId u, VertexId v, std::span<const VertexId> ws);

  /// Hands every non-empty slot's block to the handler and makes later
  /// Emits fail. Idempotent; when it returns no handler call is running.
  void Close();

 private:
  struct alignas(64) Slot {
    std::mutex mutex;  // guards the fields below
    std::string block;
    uint32_t records = 0;
    uint64_t triangles = 0;
    bool closed = false;
  };

  void HandOffLocked(Slot& slot);

  const size_t block_bytes_;
  const size_t prefix_bytes_;
  const BlockHandler handler_;
  std::array<Slot, kSlots> slots_;
};

}  // namespace opt

#endif  // OPT_CORE_RECORD_ENCODER_H_
