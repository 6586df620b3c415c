#include "service/wire_list_sink.h"

#include "service/wire.h"
#include "util/coding.h"

namespace opt {

WireListSink::WireListSink(int fd)
    : fd_(fd),
      encoder_(kBatchBytes, /*prefix_bytes=*/4,
               [this](std::string& block, uint32_t records, uint64_t) {
                 Send(block, records);
               }) {}

void WireListSink::Emit(VertexId u, VertexId v,
                        std::span<const VertexId> ws) {
  if (!encoder_.Emit(u, v, ws)) {
    std::lock_guard<std::mutex> lock(send_mutex_);
    if (status_.ok()) {
      status_ = Status::FailedPrecondition("LIST stream already finished");
    }
  }
}

Status WireListSink::Finish() {
  encoder_.Close();
  std::lock_guard<std::mutex> lock(send_mutex_);
  return status_;
}

void WireListSink::Send(std::string& block, uint32_t records) {
  EncodeFixed32(block.data(), records);  // the ListBatch record count
  std::lock_guard<std::mutex> lock(send_mutex_);
  if (status_.ok()) {
    status_ = WriteMessage(fd_, MessageType::kListBatch, block);
  }
}

}  // namespace opt
