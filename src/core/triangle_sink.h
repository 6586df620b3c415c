// Triangle output sinks. All triangulation methods emit through this
// interface using the paper's *nested representation* (§3.2): triangles
// sharing the prefix (u, v) arrive as one call <u, v, {w1..wk}>, which
// avoids re-serializing common prefixes. Sinks must be thread safe: OPT
// emits concurrently from the internal and external triangulation.
#ifndef OPT_CORE_TRIANGLE_SINK_H_
#define OPT_CORE_TRIANGLE_SINK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/record_encoder.h"
#include "core/triangle.h"
#include "storage/env.h"
#include "util/blocking_queue.h"
#include "util/status.h"

namespace opt {

class TriangleSink {
 public:
  virtual ~TriangleSink() = default;

  /// Reports the triangles (u, v, w) for every w in `ws`. `ws` is sorted
  /// ascending and every w satisfies id(u) < id(v) < id(w).
  virtual void Emit(VertexId u, VertexId v,
                    std::span<const VertexId> ws) = 0;

  /// Flushes buffered output. Called once when triangulation completes.
  virtual Status Finish() { return Status::OK(); }

  /// True when the sink needs only how many triangles there are. The
  /// iterator models then skip building the sets: they call AddCount
  /// once per model call with the summed set sizes, and never Emit.
  /// Sinks that forward Emit to other sinks keep the default.
  virtual bool counts_only() const { return false; }

  /// Reports `n` triangles without naming them. Called only on a sink
  /// whose counts_only() is true.
  virtual void AddCount(uint64_t /*n*/) {}
};

/// Counts triangles; O(1) memory. Declares counts_only(). The total is
/// striped over cache-line-padded cells picked by the calling thread, so
/// concurrent Emit and AddCount calls do not contend on one line.
class CountingSink final : public TriangleSink {
 public:
  void Emit(VertexId, VertexId, std::span<const VertexId> ws) override {
    AddCount(ws.size());
  }
  bool counts_only() const override { return true; }
  void AddCount(uint64_t n) override {
    cells_[ThreadCell()].value.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t count() const;
  void Reset();

 private:
  static constexpr size_t kCells = 16;
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };
  /// The calling thread's stripe: threads take cells round-robin in the
  /// order they first count.
  static size_t ThreadCell();

  Cell cells_[kCells];
};

/// Collects all triangles in memory (tests and small graphs only).
class VectorSink : public TriangleSink {
 public:
  void Emit(VertexId u, VertexId v, std::span<const VertexId> ws) override;
  /// Sorted, deduplicated triangle list. Call after triangulation.
  std::vector<Triangle> Sorted() const;
  size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Triangle> triangles_;
};

/// Per-vertex triangle participation counts (for clustering coefficients
/// and the data-mining examples).
class PerVertexCountSink : public TriangleSink {
 public:
  explicit PerVertexCountSink(VertexId num_vertices);
  void Emit(VertexId u, VertexId v, std::span<const VertexId> ws) override;
  /// Copy of the per-vertex counts.
  std::vector<uint64_t> Counts() const;
  uint64_t total() const { return total_.load(std::memory_order_relaxed); }

 private:
  std::vector<std::atomic<uint64_t>> counts_;
  std::atomic<uint64_t> total_{0};
};

/// Streams the nested representation to a file through a background
/// writer thread — the paper's asynchronous bulk output writing (§5.2).
/// Record format (binary, little-endian u32): u, v, k, w1..wk.
///
/// Each emitting thread encodes into its own block (NestedRecordEncoder);
/// full blocks go to the writer and come back through a free list, so
/// emitting threads do not contend for one lock. At most
/// 2 × NestedRecordEncoder::kSlots blocks of about `flush_threshold`
/// bytes exist at once; a thread whose block is full waits for the
/// writer when none is free.
class ListingSink : public TriangleSink {
 public:
  /// Hands a block to the writer thread once it holds `flush_threshold`
  /// bytes. With `asynchronous` false the block is written inline on the
  /// emitting thread (serialized with other emitters) — the synchronous
  /// bulk-write mode the paper's competitors use in the Table 3
  /// experiment.
  ListingSink(Env* env, std::string path, size_t flush_threshold = 1 << 20,
              bool asynchronous = true);
  ~ListingSink() override;
  ListingSink(const ListingSink&) = delete;
  ListingSink& operator=(const ListingSink&) = delete;

  /// After Finish this writes nothing, and the next Finish returns
  /// FailedPrecondition.
  void Emit(VertexId u, VertexId v, std::span<const VertexId> ws) override;
  /// Writes every partial block, then syncs and closes the file.
  /// Idempotent: later calls return the same status.
  Status Finish() override;

  uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }
  /// Triangles handed to the writer (every emitted one, once Finish has
  /// returned).
  uint64_t triangles_written() const {
    return triangles_.load(std::memory_order_relaxed);
  }

 private:
  void HandOff(std::string& block, uint64_t triangles);
  void WriterLoop();
  void WriteBlock(const std::string& block);
  void Latch(const Status& status);

  Env* env_;
  std::string path_;
  bool asynchronous_;

  std::mutex file_mutex_;  // serializes writes to file_; guards status_
  std::unique_ptr<WritableFile> file_;
  Status status_;

  BlockingQueue<std::string> blocks_;      // full blocks for the writer
  BlockingQueue<std::string> free_blocks_;  // written blocks, for reuse
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> triangles_{0};
  std::once_flag finish_once_;
  NestedRecordEncoder encoder_;
  std::thread writer_;
};

/// Fans out to several sinks (e.g. counting + listing).
class TeeSink : public TriangleSink {
 public:
  explicit TeeSink(std::vector<TriangleSink*> sinks)
      : sinks_(std::move(sinks)) {}
  void Emit(VertexId u, VertexId v, std::span<const VertexId> ws) override {
    for (TriangleSink* s : sinks_) s->Emit(u, v, ws);
  }
  Status Finish() override {
    for (TriangleSink* s : sinks_) OPT_RETURN_IF_ERROR(s->Finish());
    return Status::OK();
  }

 private:
  std::vector<TriangleSink*> sinks_;
};

}  // namespace opt

#endif  // OPT_CORE_TRIANGLE_SINK_H_
