// Sorted-list intersection kernels — the inner loop of every iterator
// model. Two scalar strategies: linear merge and galloping (for skewed
// list sizes). Both also exist as AVX2 kernels (8-wide block-merge with
// cmpeq/permute compaction; galloping with a vectorized lower-bound
// probe), selected by a cpuid feature check so one binary runs the best
// kernel the host supports.
//
// All kernels agree with std::set_intersection on any sorted input,
// including duplicates (the SIMD block-merge detects duplicate runs and
// falls back to scalar stepping across them), so adversarial inputs are
// safe even though adjacency lists are duplicate-free in practice.
//
// A fourth family serves skewed graphs: bitmap kernels intersect a
// sorted list (or another bitmap) against a word-aligned DenseBitmap via
// bit tests and AND+popcount — AVX2-accelerated (kBitmap) or portable
// __builtin_popcountll (kBitmapScalar). Bitmaps are sets, so these
// kernels have *set* semantics: they agree with std::set_intersection on
// duplicate-free inputs (adjacency lists always are) and emit each
// common value once otherwise. Hub routing (src/graph/hub_bitmap.h)
// decides which vertex pairs take this path.
#ifndef OPT_GRAPH_INTERSECT_H_
#define OPT_GRAPH_INTERSECT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/csr_graph.h"
#include "util/status.h"

namespace opt {

class HubBitmapIndex;

// ---------------------------------------------------------------------------
// Kernel selection.
// ---------------------------------------------------------------------------

enum class IntersectKernel : uint8_t {
  kScalar = 0,  // portable C++ (always available)
  kAvx2 = 1,    // AVX2 8-wide block-merge + AVX2 lower-bound galloping
  kBitmap = 2,  // hub bitmaps, AVX2 AND+popcount (requires AVX2)
  kBitmapScalar = 3,  // hub bitmaps, portable 64-bit popcount
  kAuto = 4,    // resolve to the best CPU-supported *merge* kernel
};

/// Number of concrete kernels (kAuto is a selector, not a kernel).
inline constexpr int kNumIntersectKernels = 4;

/// True for the bitmap family (hub routing enabled when active).
inline constexpr bool IsBitmapKernel(IntersectKernel kernel) {
  return kernel == IntersectKernel::kBitmap ||
         kernel == IntersectKernel::kBitmapScalar;
}

const char* IntersectKernelName(IntersectKernel kernel);

/// True when the host CPU can execute `kernel` (cpuid-based feature
/// probe; kScalar and kAuto are always supported).
bool IntersectKernelSupported(IntersectKernel kernel);

/// The widest *merge* kernel the host CPU supports (what kAuto resolves
/// to). Never a bitmap kernel: those only apply to hub pairs with a
/// materialized bitmap, so they are opt-in via `--kernel bitmap`.
IntersectKernel BestIntersectKernel();

/// Parses "scalar" | "avx2" | "bitmap" | "bitmap_scalar" | "auto" (the
/// `--kernel` CLI knob); anything else is InvalidArgument.
Result<IntersectKernel> ParseIntersectKernel(const std::string& name);

/// The concrete kernel a run executes for a requested one: kAuto
/// resolves to BestIntersectKernel(). Returns InvalidArgument for a
/// kernel the host CPU cannot execute — in particular `bitmap` on hosts
/// without AVX2 (select `bitmap_scalar` explicitly for the portable
/// popcount fallback).
Result<IntersectKernel> ResolveIntersectKernel(IntersectKernel kernel);

// ---------------------------------------------------------------------------
// Per-thread kernel scope. A run resolves its kernel once and installs
// it, together with its hub index (bitmap kernels only), on every thread
// for the duration of each work unit; the dispatched Intersect /
// IntersectCount entry points (and the hub-routed overloads in
// hub_bitmap.h) read it. Scopes nest and restore the previous one on
// destruction. A thread with no scope runs BestIntersectKernel(), so one
// run's kernel never leaks into concurrent or later work.
// ---------------------------------------------------------------------------

class IntersectScope {
 public:
  /// kAuto installs BestIntersectKernel(). `hubs` (nullable, must
  /// outlive the scope) is only consulted under a bitmap kernel.
  explicit IntersectScope(IntersectKernel kernel,
                          const HubBitmapIndex* hubs = nullptr);
  ~IntersectScope();
  IntersectScope(const IntersectScope&) = delete;
  IntersectScope& operator=(const IntersectScope&) = delete;

 private:
  IntersectKernel prev_kernel_;
  const HubBitmapIndex* prev_hubs_;
};

/// The kernel this thread's dispatched entry points run: the innermost
/// scope's, else BestIntersectKernel().
IntersectKernel ActiveIntersectKernel();

/// The hub index installed on this thread, or nullptr.
const HubBitmapIndex* CurrentHubBitmapIndex();

// ---------------------------------------------------------------------------
// Per-kernel instrumentation. Counters are process-wide, aggregated
// over thread-local cells, and monotonically increasing: measure a
// region by snapshotting before/after and taking the Delta.
// ---------------------------------------------------------------------------

struct IntersectCounters {
  /// Kernel invocations, indexed by IntersectKernel (concrete kernels).
  uint64_t calls[kNumIntersectKernels] = {};
  /// Elements consumed per call, same indexing. Merge/galloping
  /// count |a| + |b|; bitmap kernels count the probe-list length plus
  /// the dense side's set-bit population (their unit of work).
  uint64_t elements[kNumIntersectKernels] = {};

  uint64_t TotalCalls() const {
    uint64_t total = 0;
    for (int k = 0; k < kNumIntersectKernels; ++k) total += calls[k];
    return total;
  }
  uint64_t TotalElements() const {
    uint64_t total = 0;
    for (int k = 0; k < kNumIntersectKernels; ++k) total += elements[k];
    return total;
  }
  void Accumulate(const IntersectCounters& other) {
    for (int k = 0; k < kNumIntersectKernels; ++k) {
      calls[k] += other.calls[k];
      elements[k] += other.elements[k];
    }
  }
  static IntersectCounters Delta(const IntersectCounters& after,
                                 const IntersectCounters& before) {
    IntersectCounters d;
    for (int k = 0; k < kNumIntersectKernels; ++k) {
      d.calls[k] = after.calls[k] - before.calls[k];
      d.elements[k] = after.elements[k] - before.elements[k];
    }
    return d;
  }
};

/// Sums the thread-local counter cells (live threads + retired ones).
IntersectCounters SnapshotIntersectCounters();

// ---------------------------------------------------------------------------
// Explicit-kernel entry points (ablation + tests). kAuto resolves to
// the best supported kernel; an unsupported kernel falls back to scalar
// so these are safe to call on any host.
// ---------------------------------------------------------------------------

size_t IntersectMergeWith(IntersectKernel kernel, std::span<const VertexId> a,
                          std::span<const VertexId> b,
                          std::vector<VertexId>* out);
size_t IntersectGallopingWith(IntersectKernel kernel,
                              std::span<const VertexId> a,
                              std::span<const VertexId> b,
                              std::vector<VertexId>* out);
uint64_t IntersectCountMergeWith(IntersectKernel kernel,
                                 std::span<const VertexId> a,
                                 std::span<const VertexId> b);
uint64_t IntersectCountGallopingWith(IntersectKernel kernel,
                                     std::span<const VertexId> a,
                                     std::span<const VertexId> b);

// ---------------------------------------------------------------------------
// Scalar reference kernels (the portable fallback of the dispatch
// table; also the oracle side of the fuzz tests).
// ---------------------------------------------------------------------------

/// Appends a ∩ b (both sorted ascending) to *out. Returns count added.
size_t IntersectMerge(std::span<const VertexId> a, std::span<const VertexId> b,
                      std::vector<VertexId>* out);

/// Galloping intersection: binary-searches the larger list for each
/// element of the smaller one. Wins when |a| << |b|.
size_t IntersectGalloping(std::span<const VertexId> a,
                          std::span<const VertexId> b,
                          std::vector<VertexId>* out);

/// Count-only variants (no output materialization) for counting sinks.
uint64_t IntersectCountMerge(std::span<const VertexId> a,
                             std::span<const VertexId> b);
uint64_t IntersectCountGalloping(std::span<const VertexId> a,
                                 std::span<const VertexId> b);

// ---------------------------------------------------------------------------
// Bitmap kernels (the DODG hub path). A DenseBitmap materializes a
// sorted id list as one bit per id over a fixed universe; intersections
// against it are bit tests (sparse probe) or word-wise AND + popcount
// (dense × dense). Set semantics: duplicate ids collapse.
// ---------------------------------------------------------------------------

/// Word-aligned bitset over [0, universe). Words are padded to a
/// multiple of 4 (one AVX2 lane) and zero beyond the universe, so the
/// vector kernels never mask the tail.
class DenseBitmap {
 public:
  DenseBitmap() = default;
  explicit DenseBitmap(VertexId universe) { Reset(universe); }

  /// Clears and resizes to cover [0, universe).
  void Reset(VertexId universe);

  /// Sets the bits of `sorted_ids` (each must be < universe();
  /// duplicates collapse). Callable repeatedly; bits accumulate.
  void SetFrom(std::span<const VertexId> sorted_ids);

  bool Test(VertexId v) const {
    return (words_[v >> 6] >> (v & 63)) & 1u;
  }

  VertexId universe() const { return universe_; }
  /// Number of set bits (maintained by SetFrom).
  uint64_t popcount() const { return popcount_; }
  std::span<const uint64_t> words() const { return words_; }
  /// Heap bytes held by the word array (bitmap memory accounting).
  size_t memory_bytes() const { return words_.capacity() * sizeof(uint64_t); }

 private:
  VertexId universe_ = 0;
  uint64_t popcount_ = 0;
  std::vector<uint64_t> words_;
};

/// b ∩ dense, restricted to values in [lo, hi] — for hub routing, where
/// the caller's span is a contiguous slice of the bitmap's id list and
/// the clamp re-creates the slice boundary. `kernel` must be a bitmap
/// kernel; kBitmap degrades to kBitmapScalar without AVX2, anything
/// else is treated as kBitmapScalar (safe on any host, like the merge
/// entry points). Count variants return the cardinality; materializing
/// variants append the (sorted, duplicate-free) result.
uint64_t IntersectCountBitmapSparseWith(IntersectKernel kernel,
                                        std::span<const VertexId> sparse,
                                        const DenseBitmap& dense);
size_t IntersectBitmapSparseWith(IntersectKernel kernel,
                                 std::span<const VertexId> sparse,
                                 const DenseBitmap& dense,
                                 std::vector<VertexId>* out);
uint64_t IntersectCountBitmapDenseWith(IntersectKernel kernel,
                                       const DenseBitmap& a,
                                       const DenseBitmap& b, VertexId lo,
                                       VertexId hi);
size_t IntersectBitmapDenseWith(IntersectKernel kernel, const DenseBitmap& a,
                                const DenseBitmap& b, VertexId lo, VertexId hi,
                                std::vector<VertexId>* out);

// ---------------------------------------------------------------------------
// Dispatched adaptive entry points (what the iterator models call):
// picks merge vs galloping from the size ratio, then runs this thread's
// ActiveIntersectKernel().
// ---------------------------------------------------------------------------

size_t Intersect(std::span<const VertexId> a, std::span<const VertexId> b,
                 std::vector<VertexId>* out);
uint64_t IntersectCount(std::span<const VertexId> a,
                        std::span<const VertexId> b);

}  // namespace opt

#endif  // OPT_GRAPH_INTERSECT_H_
