// Sorted-list intersection kernels — the inner loop of the in-memory
// paths (the oracle, 4-clique, k-truss, distsim, the delta overlay).
// Two scalar strategies: linear merge and galloping (for skewed list
// sizes). Both also exist as AVX2 kernels (8-wide block-merge with
// cmpeq/permute compaction; galloping with a vectorized lower-bound
// probe), selected by a cpuid feature check so one binary runs the best
// kernel the host supports.
//
// All kernels agree with std::set_intersection on any sorted input,
// including duplicates (the SIMD block-merge detects duplicate runs and
// falls back to scalar stepping across them), so adversarial inputs are
// safe even though adjacency lists are duplicate-free in practice.
//
// The iterator models intersect by mark-and-probe instead
// (core/iterator_model.cc): one list's bits are set in a DenseBitmap and
// every list it meets is probed against them by bit tests
// (CountBitmapSparse, CollectBitmapSparse below). The marker is a set,
// so the probes have *set* semantics: they agree with
// std::set_intersection on duplicate-free inputs (adjacency lists always
// are) and report a repeated probe id once.
#ifndef OPT_GRAPH_INTERSECT_H_
#define OPT_GRAPH_INTERSECT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/csr_graph.h"
#include "util/status.h"

namespace opt {

// ---------------------------------------------------------------------------
// Kernel selection.
// ---------------------------------------------------------------------------

enum class IntersectKernel : uint8_t {
  kScalar = 0,  // portable C++ (always available)
  kAvx2 = 1,    // AVX2 8-wide block-merge + AVX2 lower-bound galloping
  // The iterator models' mark-and-probe (portable bit tests). A counter
  // slot only: it is not a `--kernel` value, and a scope holding it runs
  // the scalar merge.
  kBitmapScalar = 2,
  kAuto = 3,    // resolve to the best CPU-supported merge kernel
};

/// Number of counter slots (kAuto is a selector, not a kernel).
inline constexpr int kNumIntersectKernels = 3;

const char* IntersectKernelName(IntersectKernel kernel);

/// True when the host CPU can execute `kernel` (cpuid-based feature
/// probe; kScalar and kAuto are always supported).
bool IntersectKernelSupported(IntersectKernel kernel);

/// The widest merge kernel the host CPU supports (what kAuto resolves
/// to).
IntersectKernel BestIntersectKernel();

/// Parses "scalar" | "avx2" | "auto" (the `--kernel` CLI knob); anything
/// else is InvalidArgument.
Result<IntersectKernel> ParseIntersectKernel(const std::string& name);

/// The concrete kernel a run executes for a requested one: kAuto
/// resolves to BestIntersectKernel(). Returns InvalidArgument for a
/// kernel the host CPU cannot execute (`avx2` on hosts without AVX2).
Result<IntersectKernel> ResolveIntersectKernel(IntersectKernel kernel);

// ---------------------------------------------------------------------------
// Per-thread kernel scope. A run resolves its kernel once and installs
// it on every thread for the duration of each work unit; the dispatched
// Intersect / IntersectCount entry points read it. Scopes nest and
// restore the previous one on destruction. A thread with no scope runs
// BestIntersectKernel(), so one run's kernel never leaks into concurrent
// or later work.
// ---------------------------------------------------------------------------

class IntersectScope {
 public:
  /// kAuto installs BestIntersectKernel().
  explicit IntersectScope(IntersectKernel kernel);
  ~IntersectScope();
  IntersectScope(const IntersectScope&) = delete;
  IntersectScope& operator=(const IntersectScope&) = delete;

 private:
  IntersectKernel prev_kernel_;
};

/// The kernel this thread's dispatched entry points run: the innermost
/// scope's, else BestIntersectKernel().
IntersectKernel ActiveIntersectKernel();

// ---------------------------------------------------------------------------
// Per-kernel instrumentation. Counters are process-wide, aggregated
// over thread-local cells, and monotonically increasing: measure a
// region by snapshotting before/after and taking the Delta.
// ---------------------------------------------------------------------------

struct IntersectCounters {
  /// Kernel invocations, indexed by IntersectKernel (concrete kernels).
  uint64_t calls[kNumIntersectKernels] = {};
  /// Elements consumed per call, same indexing. Merge/galloping
  /// count |a| + |b|; a mark-and-probe call counts the clamped probe
  /// list plus the marked list (its unit of work).
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

/// Adds `calls` invocations of `kernel` consuming `elements` elements
/// to this thread's cell in one update — for callers that run an
/// uncounted inner loop (CountBitmapSparse, CollectBitmapSparse) many
/// times and record the work once.
void RecordIntersectCalls(IntersectKernel kernel, uint64_t calls,
                          uint64_t elements);

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
// Mark-and-probe. A DenseBitmap holds one list as one bit per id over a
// fixed universe; the probes intersect a sorted list with it by bit
// tests. Set semantics: a repeated probe id is reported once.
// ---------------------------------------------------------------------------

/// Word-aligned bitset over [0, universe), used as a reusable marker:
/// set one list's bits, probe, then clear exactly those words again.
class DenseBitmap {
 public:
  DenseBitmap() = default;
  explicit DenseBitmap(VertexId universe) { Reset(universe); }

  /// Clears and resizes to cover [0, universe).
  void Reset(VertexId universe);

  /// Sets the bits of `distinct_ids` (each < universe()) with plain
  /// word stores.
  void SetDistinct(std::span<const VertexId> distinct_ids);

  /// Zeroes every word that holds one of `ids` (each < universe()) with
  /// plain stores: `ids` must cover every set bit, as after
  /// SetDistinct(ids) on an empty bitmap. Empties it again in O(|ids|),
  /// without touching the rest of the universe.
  void ClearFrom(std::span<const VertexId> ids);

  VertexId universe() const { return universe_; }
  std::span<const uint64_t> words() const { return words_; }

 private:
  VertexId universe_ = 0;
  std::vector<uint64_t> words_;
};

/// Bit `v` of a DenseBitmap's words, as 0 or 1.
inline uint64_t BitOf(const uint64_t* words, VertexId v) {
  return (words[v >> 6] >> (v & 63)) & 1u;
}

/// |sparse ∩ dense| by branch-free bit tests. Uncounted: callers that
/// probe one bitmap many times record the work once
/// (RecordIntersectCalls). `sparse` must be sorted with every id
/// < dense.universe(); duplicate ids count once.
inline uint64_t CountBitmapSparse(std::span<const VertexId> sparse,
                                  const DenseBitmap& dense) {
  if (sparse.empty()) return 0;
  const uint64_t* words = dense.words().data();
  uint64_t count = BitOf(words, sparse[0]);
  for (size_t i = 1; i < sparse.size(); ++i) {
    count += BitOf(words, sparse[i]) & uint64_t{sparse[i] != sparse[i - 1]};
  }
  return count;
}

/// Writes sparse ∩ dense (sorted, duplicate-free) to `out`, which must
/// have room for |sparse| ids, and returns its size. Same branch-free
/// bit tests and preconditions as CountBitmapSparse: every id is
/// written, and the output cursor advances only past a set,
/// first-of-its-run id. Uncounted.
inline size_t CollectBitmapSparse(std::span<const VertexId> sparse,
                                  const DenseBitmap& dense, VertexId* out) {
  if (sparse.empty()) return 0;
  const uint64_t* words = dense.words().data();
  out[0] = sparse[0];
  size_t n = BitOf(words, sparse[0]);
  for (size_t i = 1; i < sparse.size(); ++i) {
    out[n] = sparse[i];
    n += BitOf(words, sparse[i]) & size_t{sparse[i] != sparse[i - 1]};
  }
  return n;
}

// ---------------------------------------------------------------------------
// Dispatched adaptive entry points (what the in-memory paths call):
// picks merge vs galloping from the size ratio, then runs this thread's
// ActiveIntersectKernel().
// ---------------------------------------------------------------------------

size_t Intersect(std::span<const VertexId> a, std::span<const VertexId> b,
                 std::vector<VertexId>* out);
uint64_t IntersectCount(std::span<const VertexId> a,
                        std::span<const VertexId> b);

}  // namespace opt

#endif  // OPT_GRAPH_INTERSECT_H_
