#include "core/triangle_sink.h"

#include <algorithm>
#include <utility>

namespace opt {

size_t CountingSink::ThreadCell() {
  static std::atomic<size_t> next{0};
  thread_local const size_t cell =
      next.fetch_add(1, std::memory_order_relaxed) % kCells;
  return cell;
}

uint64_t CountingSink::count() const {
  uint64_t total = 0;
  for (const Cell& c : cells_) {
    total += c.value.load(std::memory_order_relaxed);
  }
  return total;
}

void CountingSink::Reset() {
  for (Cell& c : cells_) c.value.store(0, std::memory_order_relaxed);
}

void VectorSink::Emit(VertexId u, VertexId v, std::span<const VertexId> ws) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (VertexId w : ws) triangles_.push_back({u, v, w});
}

std::vector<Triangle> VectorSink::Sorted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Triangle> out = triangles_;
  std::sort(out.begin(), out.end());
  return out;
}

size_t VectorSink::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return triangles_.size();
}

PerVertexCountSink::PerVertexCountSink(VertexId num_vertices)
    : counts_(num_vertices) {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
}

void PerVertexCountSink::Emit(VertexId u, VertexId v,
                              std::span<const VertexId> ws) {
  counts_[u].fetch_add(ws.size(), std::memory_order_relaxed);
  counts_[v].fetch_add(ws.size(), std::memory_order_relaxed);
  for (VertexId w : ws) {
    counts_[w].fetch_add(1, std::memory_order_relaxed);
  }
  total_.fetch_add(ws.size(), std::memory_order_relaxed);
}

std::vector<uint64_t> PerVertexCountSink::Counts() const {
  std::vector<uint64_t> out(counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

ListingSink::ListingSink(Env* env, std::string path, size_t flush_threshold,
                         bool asynchronous)
    : env_(env),
      path_(std::move(path)),
      asynchronous_(asynchronous),
      encoder_(flush_threshold, /*prefix_bytes=*/0,
               [this](std::string& block, uint32_t, uint64_t triangles) {
                 HandOff(block, triangles);
               }) {
  auto file = env_->OpenWritable(path_);
  if (file.ok()) {
    file_ = std::move(file.value());
  } else {
    status_ = file.status();
  }
  if (asynchronous_) {
    // One spare block per slot: a slot swaps its full block for a spare,
    // and the writer returns each block here once it is on disk.
    for (size_t i = 0; i < NestedRecordEncoder::kSlots; ++i) {
      free_blocks_.Push(std::string());
    }
    writer_ = std::thread([this] { WriterLoop(); });
  }
}

ListingSink::~ListingSink() {
  Status s = Finish();
  (void)s;
}

void ListingSink::Emit(VertexId u, VertexId v, std::span<const VertexId> ws) {
  if (!encoder_.Emit(u, v, ws)) {
    Latch(Status::FailedPrecondition("ListingSink: Emit after Finish"));
  }
}

void ListingSink::HandOff(std::string& block, uint64_t triangles) {
  if (asynchronous_) {
    // Blocks only while the writer holds every spare block.
    std::string spare = std::move(*free_blocks_.Pop());
    blocks_.Push(std::exchange(block, std::move(spare)));
  } else {
    WriteBlock(block);
  }
  triangles_.fetch_add(triangles, std::memory_order_relaxed);
}

void ListingSink::WriteBlock(const std::string& block) {
  std::lock_guard<std::mutex> lock(file_mutex_);
  if (file_ == nullptr) return;
  Status s = file_->Append(Slice(block));
  if (!s.ok()) {
    if (status_.ok()) status_ = s;
    return;
  }
  bytes_written_.fetch_add(block.size(), std::memory_order_relaxed);
}

void ListingSink::Latch(const Status& status) {
  std::lock_guard<std::mutex> lock(file_mutex_);
  if (status_.ok()) status_ = status;
}

Status ListingSink::Finish() {
  std::call_once(finish_once_, [this] {
    encoder_.Close();
    blocks_.Close();
    if (writer_.joinable()) writer_.join();
    std::lock_guard<std::mutex> lock(file_mutex_);
    if (file_ != nullptr) {
      Status s = file_->Sync();
      if (s.ok()) s = file_->Close();
      if (!s.ok() && status_.ok()) status_ = s;
    }
  });
  std::lock_guard<std::mutex> lock(file_mutex_);
  return status_;
}

void ListingSink::WriterLoop() {
  for (;;) {
    auto block = blocks_.Pop();
    if (!block.has_value()) return;
    WriteBlock(*block);
    free_blocks_.Push(std::move(*block));
  }
}

}  // namespace opt
