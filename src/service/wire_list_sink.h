// The server side of a LIST stream: a TriangleSink that sends the
// engine's nested records to a client socket as kListBatch frames.
#ifndef OPT_SERVICE_WIRE_LIST_SINK_H_
#define OPT_SERVICE_WIRE_LIST_SINK_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>

#include "core/record_encoder.h"
#include "core/triangle_sink.h"
#include "util/status.h"

namespace opt {

/// Each emitting thread encodes records into its own block
/// (NestedRecordEncoder); a full block goes out as one kListBatch frame
/// once its leading 4-byte record count is patched in, so only the send
/// is serialized. A failed write latches the error and turns the rest of
/// the stream into a no-op so the engine can finish without blocking on
/// a dead peer. The caller owns `fd` and sends the closing kListEnd or
/// kError frame after Finish.
class WireListSink : public TriangleSink {
 public:
  explicit WireListSink(int fd);
  WireListSink(const WireListSink&) = delete;
  WireListSink& operator=(const WireListSink&) = delete;

  /// After Finish this sends nothing, and the next Finish returns
  /// FailedPrecondition.
  void Emit(VertexId u, VertexId v, std::span<const VertexId> ws) override;
  /// Sends every partial batch; returns the first send error. Idempotent.
  Status Finish() override;

 private:
  /// Payload size at which a thread's batch is sent.
  static constexpr size_t kBatchBytes = 16 << 10;

  void Send(std::string& block, uint32_t records);

  const int fd_;
  std::mutex send_mutex_;  // serializes sends to fd_; guards status_
  Status status_;
  NestedRecordEncoder encoder_;
};

}  // namespace opt

#endif  // OPT_SERVICE_WIRE_LIST_SINK_H_
