#include "graph/intersect.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <mutex>

#if defined(__x86_64__) || defined(__i386__)
#define OPT_INTERSECT_X86 1
#include <immintrin.h>
#endif

namespace opt {

namespace {

// ---------------------------------------------------------------------------
// Per-kernel counters: thread-local cells registered in a process-wide
// list; a snapshot sums live cells plus the fold-in of exited threads.
// Cells use relaxed atomics so a concurrent snapshot is race-free
// (TSan-clean) while the owning thread's increments stay uncontended.
// ---------------------------------------------------------------------------

struct CounterCell {
  std::atomic<uint64_t> calls[kNumIntersectKernels] = {};
  std::atomic<uint64_t> elements[kNumIntersectKernels] = {};
};

struct CounterRegistry {
  std::mutex mutex;
  std::vector<CounterCell*> live;
  IntersectCounters retired;
};

CounterRegistry& Registry() {
  static CounterRegistry* registry = new CounterRegistry();  // never freed
  return *registry;
}

struct ThreadCounterSlot {
  CounterCell cell;
  ThreadCounterSlot() {
    CounterRegistry& r = Registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.live.push_back(&cell);
  }
  ~ThreadCounterSlot() {
    CounterRegistry& r = Registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (int k = 0; k < kNumIntersectKernels; ++k) {
      r.retired.calls[k] += cell.calls[k].load(std::memory_order_relaxed);
      r.retired.elements[k] +=
          cell.elements[k].load(std::memory_order_relaxed);
    }
    r.live.erase(std::find(r.live.begin(), r.live.end(), &cell));
  }
};

inline void CountCall(IntersectKernel kernel, size_t elements) {
  RecordIntersectCalls(kernel, 1, elements);
}

// ---------------------------------------------------------------------------
// Emitters: the kernels are templated over the output policy so the
// counting variants share code with the materializing ones.
// ---------------------------------------------------------------------------

struct CountEmitter {
  uint64_t count = 0;
  void Emit(VertexId) { ++count; }
  void EmitPacked(const VertexId*, int n) {
    count += static_cast<uint64_t>(n);
  }
};

struct AppendEmitter {
  std::vector<VertexId>* out;
  void Emit(VertexId v) { out->push_back(v); }
  void EmitPacked(const VertexId* packed, int n) {
    out->insert(out->end(), packed, packed + n);
  }
};

// ---------------------------------------------------------------------------
// Scalar kernels.
// ---------------------------------------------------------------------------

/// Resumable two-pointer merge: advances (i, j) by at most `steps` loop
/// iterations. The SIMD block kernels use it for tails and to step
/// across duplicate runs.
template <class Emitter>
void MergeScalarSteps(std::span<const VertexId> a, std::span<const VertexId> b,
                      size_t& i, size_t& j, size_t steps, Emitter& emit) {
  while (steps-- > 0 && i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      emit.Emit(a[i]);
      ++i;
      ++j;
    }
  }
}

template <class Emitter>
void MergeScalar(std::span<const VertexId> a, std::span<const VertexId> b,
                 Emitter& emit) {
  size_t i = 0, j = 0;
  MergeScalarSteps(a, b, i, j, static_cast<size_t>(-1), emit);
}

using LowerBoundFn = size_t (*)(const VertexId*, size_t, size_t, VertexId);

size_t LowerBoundScalar(const VertexId* data, size_t lo, size_t hi,
                        VertexId target) {
  return static_cast<size_t>(std::lower_bound(data + lo, data + hi, target) -
                             data);
}

/// Galloping skeleton shared by every ISA: exponential probe, then the
/// ISA's lower-bound routine on the bracketed range.
template <class Emitter>
void GallopGeneric(std::span<const VertexId> a, std::span<const VertexId> b,
                   LowerBoundFn lower_bound, Emitter& emit) {
  if (a.size() > b.size()) return GallopGeneric(b, a, lower_bound, emit);
  size_t j = 0;
  for (VertexId x : a) {
    size_t step = 1;
    size_t lo = j, hi = j;
    while (hi < b.size() && b[hi] < x) {
      lo = hi + 1;
      hi += step;
      step <<= 1;
    }
    if (hi > b.size()) hi = b.size();
    j = lower_bound(b.data(), lo, hi, x);
    if (j >= b.size()) break;
    if (b[j] == x) {
      emit.Emit(x);
      ++j;
    }
  }
}

// ---------------------------------------------------------------------------
// AVX2 kernels. Built with per-function target attributes so the
// translation unit compiles for the portable baseline while the vector
// bodies use AVX2; they are only ever called behind the cpuid feature
// check below.
// ---------------------------------------------------------------------------

#ifdef OPT_INTERSECT_X86

/// Lane-compaction table: for each match bitmask, the permutation that
/// packs the matched lanes to the front of the register.
struct Avx2CompactTable {
  alignas(32) uint32_t index[256][8];
  Avx2CompactTable() {
    for (int m = 0; m < 256; ++m) {
      int out = 0;
      for (int lane = 0; lane < 8; ++lane) {
        if (m & (1 << lane)) index[m][out++] = static_cast<uint32_t>(lane);
      }
      for (; out < 8; ++out) index[m][out] = 0;
    }
  }
};

const Avx2CompactTable& Avx2Compact() {
  static const Avx2CompactTable table;
  return table;
}

/// True when the 8-wide window starting at `idx` contains a value equal
/// to its predecessor (including the element just before the window).
/// The block-merge only vectorizes windows that are strictly increasing
/// *including both boundary elements*; any duplicate run touching the
/// window is handled by scalar stepping, which preserves
/// std::set_intersection multiplicity semantics. The right-boundary
/// check matters for correctness, not just multiplicity: a vector step
/// emits a match and may advance only one block, so a duplicate of the
/// matched value just past the advanced block's window would pair with
/// the stationary block's still-unconsumed copy and be emitted twice.
__attribute__((target("avx2"))) inline bool HasDupWindow8(const VertexId* p,
                                                          size_t idx,
                                                          size_t n) {
  if (idx + 8 < n && p[idx + 8] == p[idx + 7]) return true;
  if (idx == 0) {
    for (int k = 1; k < 8; ++k) {
      if (p[k] == p[k - 1]) return true;
    }
    return false;
  }
  const __m256i cur =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + idx));
  const __m256i prev =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + idx - 1));
  return _mm256_movemask_epi8(_mm256_cmpeq_epi32(cur, prev)) != 0;
}

/// AVX2 block-merge: compares an 8-block of `a` against every rotation
/// of an 8-block of `b` (_mm256_cmpeq_epi32 after each
/// _mm256_permutevar8x32_epi32), compacts the matched lanes with a
/// permutation-index table, then advances whichever block has the
/// smaller maximum (both on a tie).
template <class Emitter>
__attribute__((target("avx2"))) void MergeAvx2(std::span<const VertexId> a,
                                               std::span<const VertexId> b,
                                               Emitter& emit) {
  size_t i = 0, j = 0;
  const size_t na = a.size(), nb = b.size();
  if (na >= 8 && nb >= 8) {
    const VertexId* pa = a.data();
    const VertexId* pb = b.data();
    const Avx2CompactTable& compact = Avx2Compact();
    const __m256i rotate1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
    while (i + 8 <= na && j + 8 <= nb) {
      if (HasDupWindow8(pa, i, na) || HasDupWindow8(pb, j, nb)) {
        MergeScalarSteps(a, b, i, j, 8, emit);
        continue;
      }
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pa + i));
      __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb + j));
      __m256i match = _mm256_cmpeq_epi32(va, vb);
      for (int rot = 1; rot < 8; ++rot) {
        vb = _mm256_permutevar8x32_epi32(vb, rotate1);
        match = _mm256_or_si256(match, _mm256_cmpeq_epi32(va, vb));
      }
      const int mask = _mm256_movemask_ps(_mm256_castsi256_ps(match));
      if (mask != 0) {
        const __m256i idx = _mm256_load_si256(
            reinterpret_cast<const __m256i*>(compact.index[mask]));
        const __m256i packed = _mm256_permutevar8x32_epi32(va, idx);
        alignas(32) VertexId tmp[8];
        _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), packed);
        emit.EmitPacked(tmp, __builtin_popcount(static_cast<unsigned>(mask)));
      }
      const VertexId a_max = pa[i + 7], b_max = pb[j + 7];
      if (a_max <= b_max) i += 8;
      if (b_max <= a_max) j += 8;
    }
  }
  MergeScalarSteps(a, b, i, j, static_cast<size_t>(-1), emit);
}

/// Vectorized lower bound: binary-search narrows the range, then a SIMD
/// linear scan counts elements < target (unsigned compare via the
/// sign-flip trick). Loads never touch memory outside [lo, hi).
__attribute__((target("avx2"))) size_t LowerBoundAvx2(const VertexId* data,
                                                      size_t lo, size_t hi,
                                                      VertexId target) {
  while (hi - lo > 32) {
    const size_t mid = lo + (hi - lo) / 2;
    if (data[mid] < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const __m256i sign = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i pivot =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int>(target)), sign);
  while (lo + 8 <= hi) {
    const __m256i v = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + lo)),
        sign);
    const int lt =
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(pivot, v)));
    if (lt != 0xFF) return lo + __builtin_popcount(static_cast<unsigned>(lt));
    lo += 8;
  }
  while (lo < hi && data[lo] < target) ++lo;
  return lo;
}

#endif  // OPT_INTERSECT_X86

// ---------------------------------------------------------------------------
// Feature detection + dispatch.
// ---------------------------------------------------------------------------

bool CpuSupports(IntersectKernel kernel) {
  switch (kernel) {
    case IntersectKernel::kScalar:
    case IntersectKernel::kBitmapScalar:
    case IntersectKernel::kAuto:
      return true;
    case IntersectKernel::kAvx2:
#ifdef OPT_INTERSECT_X86
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
  }
  return false;
}

/// This thread's IntersectScope state; kAuto means "no scope" and
/// resolves to BestIntersectKernel() on read.
thread_local IntersectKernel t_kernel = IntersectKernel::kAuto;

/// Runs the resolved (concrete, supported) kernel's merge.
template <class Emitter>
void MergeDispatch(IntersectKernel kernel, std::span<const VertexId> a,
                   std::span<const VertexId> b, Emitter& emit) {
  CountCall(kernel, a.size() + b.size());
  switch (kernel) {
#ifdef OPT_INTERSECT_X86
    case IntersectKernel::kAvx2:
      return MergeAvx2(a, b, emit);
#endif
    default:
      return MergeScalar(a, b, emit);
  }
}

template <class Emitter>
void GallopDispatch(IntersectKernel kernel, std::span<const VertexId> a,
                    std::span<const VertexId> b, Emitter& emit) {
  CountCall(kernel, a.size() + b.size());
  switch (kernel) {
#ifdef OPT_INTERSECT_X86
    case IntersectKernel::kAvx2:
      return GallopGeneric(a, b, &LowerBoundAvx2, emit);
#endif
    default:
      return GallopGeneric(a, b, &LowerBoundScalar, emit);
  }
}

/// kAuto → best supported; an unsupported kernel, or the mark-and-probe
/// counter slot, → scalar.
IntersectKernel ResolveKernel(IntersectKernel kernel) {
  if (kernel == IntersectKernel::kAuto) return BestIntersectKernel();
  if (kernel == IntersectKernel::kAvx2 && CpuSupports(kernel)) return kernel;
  return IntersectKernel::kScalar;
}

}  // namespace

// ---------------------------------------------------------------------------
// Kernel selection API.
// ---------------------------------------------------------------------------

const char* IntersectKernelName(IntersectKernel kernel) {
  switch (kernel) {
    case IntersectKernel::kScalar:
      return "scalar";
    case IntersectKernel::kAvx2:
      return "avx2";
    case IntersectKernel::kBitmapScalar:
      return "bitmap_scalar";
    case IntersectKernel::kAuto:
      return "auto";
  }
  return "?";
}

bool IntersectKernelSupported(IntersectKernel kernel) {
  return CpuSupports(kernel);
}

IntersectKernel BestIntersectKernel() {
  static const IntersectKernel best = [] {
    if (CpuSupports(IntersectKernel::kAvx2)) return IntersectKernel::kAvx2;
    return IntersectKernel::kScalar;
  }();
  return best;
}

Result<IntersectKernel> ParseIntersectKernel(const std::string& name) {
  for (IntersectKernel k : {IntersectKernel::kScalar, IntersectKernel::kAvx2,
                            IntersectKernel::kAuto}) {
    if (name == IntersectKernelName(k)) return k;
  }
  return Status::InvalidArgument("unknown intersect kernel '" + name +
                                 "' (expected scalar|avx2|auto)");
}

Result<IntersectKernel> ResolveIntersectKernel(IntersectKernel kernel) {
  if (!CpuSupports(kernel)) {
    return Status::InvalidArgument(
        std::string("intersect kernel '") + IntersectKernelName(kernel) +
        "' is not supported by this CPU");
  }
  return kernel == IntersectKernel::kAuto ? BestIntersectKernel() : kernel;
}

IntersectScope::IntersectScope(IntersectKernel kernel)
    : prev_kernel_(t_kernel) {
  t_kernel = kernel;
}

IntersectScope::~IntersectScope() { t_kernel = prev_kernel_; }

IntersectKernel ActiveIntersectKernel() {
  return t_kernel == IntersectKernel::kAuto ? BestIntersectKernel()
                                            : t_kernel;
}

IntersectCounters SnapshotIntersectCounters() {
  CounterRegistry& r = Registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  IntersectCounters snapshot = r.retired;
  for (const CounterCell* cell : r.live) {
    for (int k = 0; k < kNumIntersectKernels; ++k) {
      snapshot.calls[k] += cell->calls[k].load(std::memory_order_relaxed);
      snapshot.elements[k] +=
          cell->elements[k].load(std::memory_order_relaxed);
    }
  }
  return snapshot;
}

void RecordIntersectCalls(IntersectKernel kernel, uint64_t calls,
                          uint64_t elements) {
  thread_local ThreadCounterSlot slot;
  const int k = static_cast<int>(kernel);
  // Each cell has one writer (its thread), so a relaxed load and store
  // replace the locked read-modify-write; snapshot readers still see a
  // whole value because the cells stay atomic.
  std::atomic<uint64_t>& cell_calls = slot.cell.calls[k];
  std::atomic<uint64_t>& cell_elems = slot.cell.elements[k];
  cell_calls.store(cell_calls.load(std::memory_order_relaxed) + calls,
                   std::memory_order_relaxed);
  cell_elems.store(cell_elems.load(std::memory_order_relaxed) + elements,
                   std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Explicit-kernel entry points.
// ---------------------------------------------------------------------------

size_t IntersectMergeWith(IntersectKernel kernel, std::span<const VertexId> a,
                          std::span<const VertexId> b,
                          std::vector<VertexId>* out) {
  AppendEmitter emit{out};
  const size_t before = out->size();
  MergeDispatch(ResolveKernel(kernel), a, b, emit);
  return out->size() - before;
}

size_t IntersectGallopingWith(IntersectKernel kernel,
                              std::span<const VertexId> a,
                              std::span<const VertexId> b,
                              std::vector<VertexId>* out) {
  AppendEmitter emit{out};
  const size_t before = out->size();
  GallopDispatch(ResolveKernel(kernel), a, b, emit);
  return out->size() - before;
}

uint64_t IntersectCountMergeWith(IntersectKernel kernel,
                                 std::span<const VertexId> a,
                                 std::span<const VertexId> b) {
  CountEmitter emit;
  MergeDispatch(ResolveKernel(kernel), a, b, emit);
  return emit.count;
}

uint64_t IntersectCountGallopingWith(IntersectKernel kernel,
                                     std::span<const VertexId> a,
                                     std::span<const VertexId> b) {
  CountEmitter emit;
  GallopDispatch(ResolveKernel(kernel), a, b, emit);
  return emit.count;
}

// ---------------------------------------------------------------------------
// Mark-and-probe marker.
// ---------------------------------------------------------------------------

void DenseBitmap::Reset(VertexId universe) {
  universe_ = universe;
  words_.assign((static_cast<size_t>(universe) + 63) / 64, 0);
}

void DenseBitmap::SetDistinct(std::span<const VertexId> distinct_ids) {
  uint64_t* words = words_.data();
  for (VertexId v : distinct_ids) words[v >> 6] |= uint64_t{1} << (v & 63);
}

void DenseBitmap::ClearFrom(std::span<const VertexId> ids) {
  uint64_t* words = words_.data();
  for (VertexId v : ids) words[v >> 6] = 0;
}

// ---------------------------------------------------------------------------
// Dispatched adaptive entry points.
// ---------------------------------------------------------------------------

size_t Intersect(std::span<const VertexId> a, std::span<const VertexId> b,
                 std::vector<VertexId>* out) {
  const size_t small = std::min(a.size(), b.size());
  const size_t large = std::max(a.size(), b.size());
  if (small == 0) return 0;
  const IntersectKernel kernel = ActiveIntersectKernel();
  // Galloping wins when the size ratio exceeds ~log2(large).
  if (large / small >= 16) return IntersectGallopingWith(kernel, a, b, out);
  return IntersectMergeWith(kernel, a, b, out);
}

uint64_t IntersectCount(std::span<const VertexId> a,
                        std::span<const VertexId> b) {
  const size_t small = std::min(a.size(), b.size());
  const size_t large = std::max(a.size(), b.size());
  if (small == 0) return 0;
  const IntersectKernel kernel = ActiveIntersectKernel();
  if (large / small >= 16) return IntersectCountGallopingWith(kernel, a, b);
  return IntersectCountMergeWith(kernel, a, b);
}

}  // namespace opt
