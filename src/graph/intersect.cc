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
  thread_local ThreadCounterSlot slot;
  const int k = static_cast<int>(kernel);
  slot.cell.calls[k].fetch_add(1, std::memory_order_relaxed);
  slot.cell.elements[k].fetch_add(elements, std::memory_order_relaxed);
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

/// AND + population count over `n` 64-bit words, 4 words (one 32-byte
/// lane) per iteration via the nibble-lookup popcount (two
/// _mm256_shuffle_epi8 table probes per lane, horizontally reduced with
/// _mm256_sad_epu8 each iteration so the byte accumulators cannot
/// overflow). The tail runs scalar, so callers need no padding.
__attribute__((target("avx2"))) uint64_t PopcountAndAvx2(const uint64_t* a,
                                                         const uint64_t* b,
                                                         size_t n) {
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i v = _mm256_and_si256(va, vb);
    const __m256i lo = _mm256_and_si256(v, low_mask);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
    const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                           _mm256_shuffle_epi8(lookup, hi));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(counts, zero));
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  uint64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) total += __builtin_popcountll(a[i] & b[i]);
  return total;
}

#endif  // OPT_INTERSECT_X86

// ---------------------------------------------------------------------------
// Bitmap kernel bodies (portable parts).
// ---------------------------------------------------------------------------

uint64_t PopcountAndScalar(const uint64_t* a, const uint64_t* b, size_t n) {
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += static_cast<uint64_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return total;
}

/// Probes each id of `sparse` against the bitmap. Consecutive duplicates
/// are skipped (set semantics); ids beyond the universe never match.
/// Probing is inherently scalar — both bitmap kernels share this body;
/// they differ only in the dense × dense popcount path.
template <class Emitter>
void BitmapSparseProbe(std::span<const VertexId> sparse,
                       const DenseBitmap& dense, Emitter& emit) {
  const VertexId universe = dense.universe();
  bool have_prev = false;
  VertexId prev = 0;
  for (VertexId v : sparse) {
    if (have_prev && v == prev) continue;
    have_prev = true;
    prev = v;
    if (v < universe && dense.Test(v)) emit.Emit(v);
  }
}

/// Word range + edge masks for the value interval [lo, hi], clamped to
/// the words both bitmaps actually have. Returns false when the clamped
/// interval is empty.
struct WordRange {
  size_t word_lo, word_hi;       // inclusive word indices
  uint64_t first_mask, last_mask;
};

bool ClampWordRange(const DenseBitmap& a, const DenseBitmap& b, VertexId lo,
                    uint64_t hi, WordRange* r) {
  const size_t nwords = std::min(a.words().size(), b.words().size());
  if (nwords == 0) return false;
  const uint64_t max_bit = static_cast<uint64_t>(nwords) * 64 - 1;
  const uint64_t lo64 = lo;
  const uint64_t hi64 = std::min<uint64_t>(hi, max_bit);
  if (lo64 > hi64) return false;
  r->word_lo = static_cast<size_t>(lo64 >> 6);
  r->word_hi = static_cast<size_t>(hi64 >> 6);
  r->first_mask = ~uint64_t{0} << (lo64 & 63);
  r->last_mask = (hi64 & 63) == 63
                     ? ~uint64_t{0}
                     : ((uint64_t{1} << ((hi64 & 63) + 1)) - 1);
  return true;
}

uint64_t CountAndRange(IntersectKernel resolved, const DenseBitmap& a,
                       const DenseBitmap& b, VertexId lo, VertexId hi) {
  WordRange r;
  if (!ClampWordRange(a, b, lo, hi, &r)) return 0;
  const uint64_t* pa = a.words().data();
  const uint64_t* pb = b.words().data();
  if (r.word_lo == r.word_hi) {
    return static_cast<uint64_t>(__builtin_popcountll(
        pa[r.word_lo] & pb[r.word_lo] & r.first_mask & r.last_mask));
  }
  uint64_t total = static_cast<uint64_t>(__builtin_popcountll(
                       pa[r.word_lo] & pb[r.word_lo] & r.first_mask)) +
                   static_cast<uint64_t>(__builtin_popcountll(
                       pa[r.word_hi] & pb[r.word_hi] & r.last_mask));
  const size_t interior = r.word_hi - r.word_lo - 1;
  if (interior > 0) {
#ifdef OPT_INTERSECT_X86
    if (resolved == IntersectKernel::kBitmap) {
      return total +
             PopcountAndAvx2(pa + r.word_lo + 1, pb + r.word_lo + 1, interior);
    }
#endif
    (void)resolved;
    total += PopcountAndScalar(pa + r.word_lo + 1, pb + r.word_lo + 1,
                               interior);
  }
  return total;
}

/// Materializing dense × dense: AND each word in range, then extract set
/// bits lowest-first (ctz + clear-lowest), which yields sorted output.
/// Extraction is scalar for both bitmap kernels.
template <class Emitter>
void ExtractAndRange(const DenseBitmap& a, const DenseBitmap& b, VertexId lo,
                     VertexId hi, Emitter& emit) {
  WordRange r;
  if (!ClampWordRange(a, b, lo, hi, &r)) return;
  const uint64_t* pa = a.words().data();
  const uint64_t* pb = b.words().data();
  for (size_t w = r.word_lo; w <= r.word_hi; ++w) {
    uint64_t bits = pa[w] & pb[w];
    if (w == r.word_lo) bits &= r.first_mask;
    if (w == r.word_hi) bits &= r.last_mask;
    const uint64_t base = static_cast<uint64_t>(w) * 64;
    while (bits != 0) {
      emit.Emit(static_cast<VertexId>(
          base + static_cast<uint64_t>(__builtin_ctzll(bits))));
      bits &= bits - 1;
    }
  }
}

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
    case IntersectKernel::kBitmap:
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
thread_local const HubBitmapIndex* t_hubs = nullptr;

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

/// kAuto → best supported; unsupported concrete kernel → scalar. The
/// bitmap kernels only exist for the bitmap entry points, so a raw
/// sorted-span call under a scoped bitmap kernel falls back to the
/// matching merge tier: kBitmap (AVX2 popcount) → best merge kernel,
/// kBitmapScalar → scalar merge. This is what the long tail runs when
/// hub routing declines a pair.
IntersectKernel ResolveKernel(IntersectKernel kernel) {
  if (kernel == IntersectKernel::kAuto) return BestIntersectKernel();
  if (kernel == IntersectKernel::kBitmap) return BestIntersectKernel();
  if (kernel == IntersectKernel::kBitmapScalar) return IntersectKernel::kScalar;
  return CpuSupports(kernel) ? kernel : IntersectKernel::kScalar;
}

/// Degrades kBitmap to kBitmapScalar on hosts without AVX2 and maps any
/// non-bitmap kernel to kBitmapScalar, so the bitmap entry points are
/// safe to call with anything (mirroring the merge entry points).
IntersectKernel ResolveBitmapKernel(IntersectKernel kernel) {
  if (kernel == IntersectKernel::kBitmap &&
      CpuSupports(IntersectKernel::kBitmap)) {
    return IntersectKernel::kBitmap;
  }
  return IntersectKernel::kBitmapScalar;
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
    case IntersectKernel::kBitmap:
      return "bitmap";
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
  for (IntersectKernel k :
       {IntersectKernel::kScalar, IntersectKernel::kAvx2,
        IntersectKernel::kBitmap, IntersectKernel::kBitmapScalar,
        IntersectKernel::kAuto}) {
    if (name == IntersectKernelName(k)) return k;
  }
  return Status::InvalidArgument(
      "unknown intersect kernel '" + name +
      "' (expected scalar|avx2|bitmap|bitmap_scalar|auto)");
}

Result<IntersectKernel> ResolveIntersectKernel(IntersectKernel kernel) {
  if (!CpuSupports(kernel)) {
    if (kernel == IntersectKernel::kBitmap) {
      return Status::InvalidArgument(
          "intersect kernel 'bitmap' requires AVX2, which this CPU lacks "
          "(select 'bitmap_scalar' explicitly for the portable popcount "
          "fallback)");
    }
    return Status::InvalidArgument(
        std::string("intersect kernel '") + IntersectKernelName(kernel) +
        "' is not supported by this CPU");
  }
  return kernel == IntersectKernel::kAuto ? BestIntersectKernel() : kernel;
}

IntersectScope::IntersectScope(IntersectKernel kernel,
                               const HubBitmapIndex* hubs)
    : prev_kernel_(t_kernel), prev_hubs_(t_hubs) {
  t_kernel = kernel;
  t_hubs = hubs;
}

IntersectScope::~IntersectScope() {
  t_kernel = prev_kernel_;
  t_hubs = prev_hubs_;
}

IntersectKernel ActiveIntersectKernel() {
  return t_kernel == IntersectKernel::kAuto ? BestIntersectKernel()
                                            : t_kernel;
}

const HubBitmapIndex* CurrentHubBitmapIndex() { return t_hubs; }

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
// Scalar reference kernels.
// ---------------------------------------------------------------------------

size_t IntersectMerge(std::span<const VertexId> a, std::span<const VertexId> b,
                      std::vector<VertexId>* out) {
  return IntersectMergeWith(IntersectKernel::kScalar, a, b, out);
}

size_t IntersectGalloping(std::span<const VertexId> a,
                          std::span<const VertexId> b,
                          std::vector<VertexId>* out) {
  return IntersectGallopingWith(IntersectKernel::kScalar, a, b, out);
}

uint64_t IntersectCountMerge(std::span<const VertexId> a,
                             std::span<const VertexId> b) {
  return IntersectCountMergeWith(IntersectKernel::kScalar, a, b);
}

uint64_t IntersectCountGalloping(std::span<const VertexId> a,
                                 std::span<const VertexId> b) {
  return IntersectCountGallopingWith(IntersectKernel::kScalar, a, b);
}

// ---------------------------------------------------------------------------
// Bitmap kernels.
// ---------------------------------------------------------------------------

void DenseBitmap::Reset(VertexId universe) {
  universe_ = universe;
  popcount_ = 0;
  const size_t nwords = (static_cast<size_t>(universe) + 63) / 64;
  // Pad to a whole AVX2 lane so 32-byte loads in the vector popcount
  // never read past the allocation; padding words stay zero.
  words_.assign((nwords + 3) & ~size_t{3}, 0);
}

void DenseBitmap::SetFrom(std::span<const VertexId> sorted_ids) {
  for (VertexId v : sorted_ids) {
    uint64_t& word = words_[v >> 6];
    const uint64_t bit = uint64_t{1} << (v & 63);
    popcount_ += (word & bit) == 0;
    word |= bit;
  }
}

uint64_t IntersectCountBitmapSparseWith(IntersectKernel kernel,
                                        std::span<const VertexId> sparse,
                                        const DenseBitmap& dense) {
  const IntersectKernel resolved = ResolveBitmapKernel(kernel);
  CountCall(resolved, sparse.size() + dense.popcount());
  CountEmitter emit;
  BitmapSparseProbe(sparse, dense, emit);
  return emit.count;
}

size_t IntersectBitmapSparseWith(IntersectKernel kernel,
                                 std::span<const VertexId> sparse,
                                 const DenseBitmap& dense,
                                 std::vector<VertexId>* out) {
  const IntersectKernel resolved = ResolveBitmapKernel(kernel);
  CountCall(resolved, sparse.size() + dense.popcount());
  AppendEmitter emit{out};
  const size_t before = out->size();
  BitmapSparseProbe(sparse, dense, emit);
  return out->size() - before;
}

uint64_t IntersectCountBitmapDenseWith(IntersectKernel kernel,
                                       const DenseBitmap& a,
                                       const DenseBitmap& b, VertexId lo,
                                       VertexId hi) {
  const IntersectKernel resolved = ResolveBitmapKernel(kernel);
  CountCall(resolved, a.popcount() + b.popcount());
  return CountAndRange(resolved, a, b, lo, hi);
}

size_t IntersectBitmapDenseWith(IntersectKernel kernel, const DenseBitmap& a,
                                const DenseBitmap& b, VertexId lo, VertexId hi,
                                std::vector<VertexId>* out) {
  const IntersectKernel resolved = ResolveBitmapKernel(kernel);
  CountCall(resolved, a.popcount() + b.popcount());
  AppendEmitter emit{out};
  const size_t before = out->size();
  ExtractAndRange(a, b, lo, hi, emit);
  return out->size() - before;
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
