// Randomized differential tests for every intersection kernel variant
// (scalar merge/galloping, AVX2, and the hub bitmap kernels)
// against a std::set_intersection oracle, over adversarial inputs:
// empty lists, singletons, all-equal lists, no-overlap interleavings,
// duplicates at SIMD block boundaries, lengths straddling register
// tails (7/8/9, 15/16/17), ids straddling 64-bit word and 256-bit lane
// boundaries, and heavily skewed hub/tail size ratios. Also covers
// kernel selection itself (parse/resolve/scope, per-kernel counters,
// the bitmap AVX2 feature probe) and the hub-routed entry points over
// random contiguous adjacency slices.
//
// The bitmap fuzz volume is tunable without a rebuild:
//   OPT_FUZZ_CASES=500000 OPT_FUZZ_SEED=n ./test_intersect_fuzz
// A failing trial prints a one-line repro with the exact seed.
#include "graph/intersect.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "graph/hub_bitmap.h"
#include "util/random.h"

namespace opt {
namespace {

std::vector<VertexId> Oracle(const std::vector<VertexId>& a,
                             const std::vector<VertexId>& b) {
  std::vector<VertexId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

constexpr IntersectKernel kAllKernels[] = {IntersectKernel::kScalar,
                                           IntersectKernel::kAvx2};

/// Checks every kernel variant (merge, galloping; materializing and
/// counting) against the oracle for one input pair. On hosts without
/// AVX2 those rows degrade to scalar (still checked).
void CheckAllVariants(const std::vector<VertexId>& a,
                      const std::vector<VertexId>& b,
                      const std::string& label) {
  const std::vector<VertexId> expected = Oracle(a, b);
  for (IntersectKernel kernel : kAllKernels) {
    const std::string tag =
        label + " kernel=" + IntersectKernelName(kernel) + " |a|=" +
        std::to_string(a.size()) + " |b|=" + std::to_string(b.size());
    std::vector<VertexId> merged;
    ASSERT_EQ(IntersectMergeWith(kernel, a, b, &merged), expected.size())
        << tag;
    ASSERT_EQ(merged, expected) << tag;
    ASSERT_EQ(IntersectCountMergeWith(kernel, a, b), expected.size()) << tag;

    std::vector<VertexId> galloped;
    ASSERT_EQ(IntersectGallopingWith(kernel, a, b, &galloped),
              expected.size())
        << tag;
    ASSERT_EQ(galloped, expected) << tag;
    ASSERT_EQ(IntersectCountGallopingWith(kernel, a, b), expected.size())
        << tag;
  }
}

/// Sorted list with tunable stride and duplicate probability.
std::vector<VertexId> MakeList(Random64* rng, size_t n, uint32_t max_step,
                               uint32_t dup_percent, VertexId start = 0) {
  std::vector<VertexId> out;
  out.reserve(n);
  VertexId v = start;
  for (size_t i = 0; i < n; ++i) {
    if (out.empty() || rng->Uniform(100) >= dup_percent) {
      v += 1 + static_cast<VertexId>(rng->Uniform(max_step));
    }
    out.push_back(v);  // duplicate when v was not advanced
  }
  return out;
}

TEST(IntersectFuzzTest, AdversarialFixedCases) {
  const std::vector<VertexId> empty;
  const std::vector<VertexId> one{7};
  const std::vector<VertexId> run{5, 5, 5, 5, 5, 5, 5, 5, 5};
  const std::vector<VertexId> evens{0, 2, 4, 6, 8, 10, 12, 14, 16, 18};
  const std::vector<VertexId> odds{1, 3, 5, 7, 9, 11, 13, 15, 17, 19};
  const std::vector<VertexId> big{0xFFFFFFF0u, 0xFFFFFFF5u, 0xFFFFFFFEu,
                                  0xFFFFFFFFu};
  CheckAllVariants(empty, empty, "empty-empty");
  CheckAllVariants(empty, evens, "empty-list");
  CheckAllVariants(evens, empty, "list-empty");
  CheckAllVariants(one, one, "singleton-hit");
  CheckAllVariants(one, evens, "singleton-miss");
  CheckAllVariants(run, run, "all-equal");
  CheckAllVariants(run, one, "all-equal-vs-singleton");
  CheckAllVariants(evens, odds, "no-overlap-interleaved");
  CheckAllVariants(evens, evens, "identical");
  // Values above INT32_MAX: catches signed-compare mistakes in the
  // vectorized lower bound (unsigned order needs the sign-flip trick).
  CheckAllVariants(big, big, "unsigned-range");
  CheckAllVariants(big, evens, "unsigned-vs-small");
}

TEST(IntersectFuzzTest, TailLengthsStraddlingSimdRegisters) {
  // Every length pair around the 4-lane and 8-lane block sizes,
  // including 7/8/9 and 15/16/17, at three densities.
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 18; ++n) lengths.push_back(n);
  for (size_t n : {23u, 24u, 25u, 31u, 32u, 33u}) lengths.push_back(n);
  Random64 rng(2024);
  for (uint32_t max_step : {1u, 3u, 16u}) {
    for (size_t na : lengths) {
      for (size_t nb : lengths) {
        const auto a = MakeList(&rng, na, max_step, /*dup_percent=*/0);
        const auto b = MakeList(&rng, nb, max_step, /*dup_percent=*/0);
        CheckAllVariants(a, b, "tail-sweep");
      }
    }
  }
}

TEST(IntersectFuzzTest, DuplicatesAtBlockBoundaries) {
  // Place runs of equal values so they straddle every 4- and 8-element
  // block boundary of either input — the case where a vectorized
  // block-merge can double-emit if it mishandles duplicate windows.
  Random64 rng(7);
  for (size_t boundary : {4u, 8u, 12u, 16u, 24u, 32u}) {
    for (size_t run_len : {2u, 3u, 5u, 9u}) {
      for (int side = 0; side < 3; ++side) {
        std::vector<VertexId> a, b;
        VertexId v = 1;
        auto fill = [&](std::vector<VertexId>* out, bool with_run) {
          out->clear();
          VertexId x = v;
          const size_t total = boundary + run_len + 8;
          for (size_t i = 0; i < total; ++i) {
            const bool in_run =
                with_run && i >= boundary - 1 && i < boundary - 1 + run_len;
            if (!in_run || out->empty()) {
              x += 1 + static_cast<VertexId>(rng.Uniform(2));
            }
            out->push_back(x);
          }
        };
        fill(&a, side != 1);
        fill(&b, side != 0);
        CheckAllVariants(a, b, "dup-at-boundary");
        v += 100;
      }
    }
  }
}

TEST(IntersectFuzzTest, RandomizedEquivalence) {
  // The bulk of the ≥10k randomized cases: random lengths, strides,
  // duplicate rates, and overlap offsets.
  Random64 rng(0xDEADBEEF);
  for (int trial = 0; trial < 6000; ++trial) {
    const size_t na = rng.Uniform(120);
    const size_t nb = rng.Uniform(120);
    const uint32_t max_step = 1 + static_cast<uint32_t>(rng.Uniform(8));
    const uint32_t dup_percent = static_cast<uint32_t>(rng.Uniform(35));
    const VertexId offset = static_cast<VertexId>(rng.Uniform(64));
    const auto a = MakeList(&rng, na, max_step, dup_percent);
    const auto b = MakeList(&rng, nb, max_step, dup_percent, offset);
    CheckAllVariants(a, b, "random");
  }
}

TEST(IntersectFuzzTest, HeavilySkewedSizeRatios) {
  // |a| << |b|: the galloping regime, exercised in both argument orders.
  Random64 rng(99);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t na = 1 + rng.Uniform(12);
    const size_t nb = 500 + rng.Uniform(1500);
    const auto a =
        MakeList(&rng, na, /*max_step=*/600, static_cast<uint32_t>(
                     rng.Uniform(20)));
    const auto b = MakeList(&rng, nb, /*max_step=*/4,
                            static_cast<uint32_t>(rng.Uniform(20)));
    CheckAllVariants(a, b, "skewed-small-large");
    CheckAllVariants(b, a, "skewed-large-small");
  }
}

// ---------------------------------------------------------------------------
// Bitmap kernels: differential fuzz against the set_intersection oracle.
// ---------------------------------------------------------------------------

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  return std::strtoull(s, nullptr, 10);
}

std::vector<VertexId> Dedup(std::vector<VertexId> v) {
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

constexpr IntersectKernel kBitmapKernels[] = {IntersectKernel::kBitmapScalar,
                                              IntersectKernel::kBitmap};

/// Checks both bitmap kernels (sparse probe in both argument orders,
/// dense AND+popcount, materializing and counting) against the
/// duplicate-free oracle: bitmaps have set semantics, so the expected
/// result is std::set_intersection over the deduplicated inputs.
void CheckBitmapVariants(const std::vector<VertexId>& a,
                         const std::vector<VertexId>& b,
                         const std::string& label) {
  const std::vector<VertexId> expected = Oracle(Dedup(a), Dedup(b));
  VertexId universe = 1;
  if (!a.empty()) universe = std::max(universe, a.back() + 1);
  if (!b.empty()) universe = std::max(universe, b.back() + 1);
  DenseBitmap dense_a(universe), dense_b(universe);
  dense_a.SetFrom(a);
  dense_b.SetFrom(b);
  for (IntersectKernel kernel : kBitmapKernels) {
    if (!IntersectKernelSupported(kernel)) continue;
    const std::string tag =
        label + " kernel=" + IntersectKernelName(kernel) + " |a|=" +
        std::to_string(a.size()) + " |b|=" + std::to_string(b.size());
    ASSERT_EQ(IntersectCountBitmapSparseWith(kernel, a, dense_b),
              expected.size())
        << tag;
    ASSERT_EQ(IntersectCountBitmapSparseWith(kernel, b, dense_a),
              expected.size())
        << tag;
    std::vector<VertexId> out;
    ASSERT_EQ(IntersectBitmapSparseWith(kernel, a, dense_b, &out),
              expected.size())
        << tag;
    ASSERT_EQ(out, expected) << tag;
    ASSERT_EQ(IntersectCountBitmapDenseWith(kernel, dense_a, dense_b, 0,
                                            universe - 1),
              expected.size())
        << tag;
    out.clear();
    ASSERT_EQ(IntersectBitmapDenseWith(kernel, dense_a, dense_b, 0,
                                       universe - 1, &out),
              expected.size())
        << tag;
    ASSERT_EQ(out, expected) << tag;
  }
}

TEST(BitmapFuzzTest, AdversarialFixedCases) {
  const std::vector<VertexId> empty;
  const std::vector<VertexId> one{7};
  const std::vector<VertexId> run{5, 5, 5, 5, 5, 5, 5, 5, 5};
  const std::vector<VertexId> evens{0, 2, 4, 6, 8, 10, 12, 14, 16, 18};
  const std::vector<VertexId> odds{1, 3, 5, 7, 9, 11, 13, 15, 17, 19};
  CheckBitmapVariants(empty, empty, "empty-empty");
  CheckBitmapVariants(empty, evens, "empty-list");
  CheckBitmapVariants(evens, empty, "list-empty");
  CheckBitmapVariants(one, one, "singleton-hit");
  CheckBitmapVariants(one, evens, "singleton-miss");
  CheckBitmapVariants(run, run, "all-equal");
  CheckBitmapVariants(run, one, "all-equal-vs-singleton");
  CheckBitmapVariants(evens, odds, "no-overlap-interleaved");
  CheckBitmapVariants(evens, evens, "identical");
}

TEST(BitmapFuzzTest, IdsStraddlingWordAndLaneBoundaries) {
  // Ids packed around every 64-bit word edge and 256-bit AVX2 lane edge
  // of the bitmap: the masks for the first/last partial words and the
  // scalar-tail handoff inside the 4-words-per-iteration AVX2 loop are
  // exactly the places an off-by-one would hide.
  const std::vector<VertexId> edges{0,   1,   62,  63,  64,  65,  126, 127,
                                    128, 129, 190, 191, 192, 193, 254, 255,
                                    256, 257, 511, 512, 513, 1023, 1024, 1025};
  std::vector<VertexId> lows, highs;
  for (VertexId v : edges) (v < 192 ? lows : highs).push_back(v);
  CheckBitmapVariants(edges, edges, "word-lane-identical");
  CheckBitmapVariants(lows, edges, "word-lane-prefix");
  CheckBitmapVariants(highs, edges, "word-lane-suffix");
  CheckBitmapVariants(lows, highs, "word-lane-disjoint-split");
  for (VertexId v : edges) {
    CheckBitmapVariants({v}, edges, "word-lane-singleton");
  }
}

TEST(BitmapFuzzTest, RandomizedBitmapEqualsSetIntersection) {
  // The ≥50k-case differential sweep (the per-case helper checks both
  // bitmap kernels in both argument orders plus the dense pair, so the
  // kernel-level case count is a multiple of this). Each trial reseeds
  // from its own derived seed, so the printed repro line replays just
  // the failing trial.
  const uint64_t cases = EnvU64("OPT_FUZZ_CASES", 50000);
  const uint64_t base_seed = EnvU64("OPT_FUZZ_SEED", 0xB17A15EEDull);
  for (uint64_t trial = 0; trial < cases; ++trial) {
    const uint64_t seed = base_seed + trial;
    Random64 rng(seed);
    // Size shapes: tail-tail, hub-tail (both orders), hub-hub.
    const uint32_t shape = static_cast<uint32_t>(rng.Uniform(4));
    const size_t na = shape == 0 || shape == 1 ? rng.Uniform(48)
                                               : 256 + rng.Uniform(1024);
    const size_t nb = shape == 0 || shape == 2 ? rng.Uniform(48)
                                               : 256 + rng.Uniform(1024);
    const uint32_t max_step = 1 + static_cast<uint32_t>(rng.Uniform(8));
    const uint32_t dup_percent = static_cast<uint32_t>(rng.Uniform(35));
    const VertexId offset = static_cast<VertexId>(rng.Uniform(256));
    const auto a = MakeList(&rng, na, max_step, dup_percent);
    const auto b = MakeList(&rng, nb, max_step, dup_percent, offset);
    CheckBitmapVariants(a, b, "bitmap-fuzz seed=" + std::to_string(seed));
    // Sub-range clamp: the dense pair restricted to a random [lo, hi]
    // window must equal the oracle filtered to that window.
    if (!a.empty() && !b.empty()) {
      const VertexId universe = std::max(a.back(), b.back()) + 1;
      VertexId lo = static_cast<VertexId>(rng.Uniform(universe));
      VertexId hi = static_cast<VertexId>(rng.Uniform(universe));
      if (lo > hi) std::swap(lo, hi);
      std::vector<VertexId> window = Oracle(Dedup(a), Dedup(b));
      std::erase_if(window,
                    [lo, hi](VertexId v) { return v < lo || v > hi; });
      DenseBitmap dense_a(universe), dense_b(universe);
      dense_a.SetFrom(a);
      dense_b.SetFrom(b);
      for (IntersectKernel kernel : kBitmapKernels) {
        if (!IntersectKernelSupported(kernel)) continue;
        std::vector<VertexId> out;
        ASSERT_EQ(
            IntersectBitmapDenseWith(kernel, dense_a, dense_b, lo, hi, &out),
            window.size())
            << "clamped seed=" << seed;
        ASSERT_EQ(out, window) << "clamped seed=" << seed;
      }
    }
    if (::testing::Test::HasFailure()) {
      std::fprintf(stderr,
                   "bitmap fuzz repro: OPT_FUZZ_SEED=%" PRIu64
                   " OPT_FUZZ_CASES=1 ./test_intersect_fuzz "
                   "--gtest_filter=BitmapFuzzTest.*\n",
                   seed);
      return;
    }
  }
}

TEST(BitmapFuzzTest, RoutedSlicesMatchScalarMerge) {
  // The hub-routed entry points receive *contiguous slices* of each
  // vertex's full sorted adjacency (succ()/prec() subspans) while the
  // bitmap holds the full list — the clamping invariant. Fuzz random
  // slices through a real HubBitmapIndex against the scalar merge on
  // the same slices; adjacency lists are duplicate-free, so merge and
  // bitmap semantics coincide.
  if (!IntersectKernelSupported(IntersectKernel::kBitmapScalar)) {
    GTEST_SKIP();
  }
  const uint64_t cases = std::max<uint64_t>(EnvU64("OPT_FUZZ_CASES", 50000) / 25, 100);
  const uint64_t base_seed = EnvU64("OPT_FUZZ_SEED", 0x5CA1AB1Eull);
  for (IntersectKernel kernel : kBitmapKernels) {
    if (!IntersectKernelSupported(kernel)) continue;
    for (uint64_t trial = 0; trial < cases; ++trial) {
      const uint64_t seed = base_seed + trial;
      Random64 rng(seed);
      const auto full_a = Dedup(
          MakeList(&rng, 8 + rng.Uniform(512), 3, /*dup_percent=*/0));
      const auto full_b = Dedup(
          MakeList(&rng, 8 + rng.Uniform(512), 3, /*dup_percent=*/0));
      const VertexId universe =
          std::max(full_a.back(), full_b.back()) + 1;
      // va is always a hub; vb is a hub on half the trials, so both the
      // dense×dense and sparse-probe routes get exercised.
      const bool b_is_hub = rng.Uniform(2) == 0;
      HubBitmapIndex index;
      index.Reset(universe, /*degree_threshold=*/0);
      index.Add(0, full_a);
      if (b_is_hub) index.Add(1, full_b);
      IntersectScope scope(kernel, &index);
      auto slice = [&rng](const std::vector<VertexId>& full) {
        const size_t lo = rng.Uniform(full.size());
        const size_t hi = lo + rng.Uniform(full.size() - lo) + 1;
        return std::span<const VertexId>(full.data() + lo, hi - lo);
      };
      for (int rep = 0; rep < 4; ++rep) {
        const auto sa = slice(full_a);
        const auto sb = slice(full_b);
        const uint64_t expected =
            IntersectCountMergeWith(IntersectKernel::kScalar, sa, sb);
        std::vector<VertexId> expected_list;
        IntersectMergeWith(IntersectKernel::kScalar, sa, sb,
                           &expected_list);
        std::vector<VertexId> routed_list;
        ASSERT_EQ(IntersectCount(0, 1, sa, sb), expected)
            << "routed seed=" << seed << " kernel="
            << IntersectKernelName(kernel);
        ASSERT_EQ(Intersect(0, 1, sa, sb, &routed_list), expected)
            << "routed seed=" << seed;
        ASSERT_EQ(routed_list, expected_list) << "routed seed=" << seed;
        // Swapped order: the hub side flips.
        ASSERT_EQ(IntersectCount(1, 0, sb, sa), expected)
            << "routed-swap seed=" << seed;
      }
      if (::testing::Test::HasFailure()) {
        std::fprintf(stderr,
                     "routed fuzz repro: OPT_FUZZ_SEED=%" PRIu64
                     " OPT_FUZZ_CASES=25 ./test_intersect_fuzz "
                     "--gtest_filter=BitmapFuzzTest.RoutedSlices*\n",
                     seed);
        return;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel selection: parse, resolve, and the per-thread scope.
// ---------------------------------------------------------------------------

class KernelDispatchTest : public ::testing::Test {
 protected:
  void TearDown() override {
    // Every scope a test opens must have been closed again.
    EXPECT_EQ(ActiveIntersectKernel(), BestIntersectKernel());
    EXPECT_EQ(CurrentHubBitmapIndex(), nullptr);
  }
};

TEST_F(KernelDispatchTest, ParseAcceptsKnownNamesOnly) {
  for (IntersectKernel k :
       {IntersectKernel::kScalar, IntersectKernel::kAvx2,
        IntersectKernel::kBitmap, IntersectKernel::kBitmapScalar,
        IntersectKernel::kAuto}) {
    auto parsed = ParseIntersectKernel(IntersectKernelName(k));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_TRUE(ParseIntersectKernel("sse").status().IsInvalidArgument());
  EXPECT_FALSE(ParseIntersectKernel("sse9").ok());
  EXPECT_FALSE(ParseIntersectKernel("").ok());
  EXPECT_FALSE(ParseIntersectKernel("AUTO").ok());
  EXPECT_FALSE(ParseIntersectKernel("bitmaps").ok());
  EXPECT_FALSE(ParseIntersectKernel("BITMAP").ok());
}

TEST_F(KernelDispatchTest, BitmapKernelFeatureProbe) {
  // 'bitmap' needs AVX2: its support tracks the AVX2 merge kernel, and
  // requesting it on a host without AVX2 is a typed InvalidArgument that
  // names the portable fallback — never a silent downgrade.
  EXPECT_EQ(IntersectKernelSupported(IntersectKernel::kBitmap),
            IntersectKernelSupported(IntersectKernel::kAvx2));
  const auto resolved = ResolveIntersectKernel(IntersectKernel::kBitmap);
  if (IntersectKernelSupported(IntersectKernel::kBitmap)) {
    ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
    IntersectScope scope(*resolved);
    EXPECT_EQ(ActiveIntersectKernel(), IntersectKernel::kBitmap);
  } else {
    const Status& s = resolved.status();
    ASSERT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_NE(s.ToString().find("AVX2"), std::string::npos)
        << s.ToString();
    EXPECT_NE(s.ToString().find("bitmap_scalar"), std::string::npos)
        << s.ToString();
    // The failed request installed nothing.
    EXPECT_FALSE(IsBitmapKernel(ActiveIntersectKernel()));
  }
  // The scalar popcount fallback is selectable on every host.
  const auto fallback =
      ResolveIntersectKernel(IntersectKernel::kBitmapScalar);
  ASSERT_TRUE(fallback.ok());
  IntersectScope scope(*fallback);
  EXPECT_EQ(ActiveIntersectKernel(), IntersectKernel::kBitmapScalar);
  EXPECT_TRUE(IntersectKernelSupported(IntersectKernel::kBitmapScalar));
}

TEST_F(KernelDispatchTest, BitmapCountersAttributeToTheResolvedKernel) {
  Random64 rng(11);
  const auto sparse = MakeList(&rng, 32, 2, 0);
  const auto dense_ids = MakeList(&rng, 256, 2, 0);
  DenseBitmap dense(dense_ids.back() + 1);
  dense.SetFrom(dense_ids);
  for (IntersectKernel k : kBitmapKernels) {
    if (!IntersectKernelSupported(k)) continue;
    const int idx = static_cast<int>(k);
    const IntersectCounters before = SnapshotIntersectCounters();
    (void)IntersectCountBitmapSparseWith(k, sparse, dense);
    const IntersectCounters delta =
        IntersectCounters::Delta(SnapshotIntersectCounters(), before);
    EXPECT_EQ(delta.calls[idx], 1u) << IntersectKernelName(k);
    // Sparse-probe cost model: probe list plus dense population.
    EXPECT_EQ(delta.elements[idx], sparse.size() + dense.popcount())
        << IntersectKernelName(k);
    EXPECT_EQ(delta.TotalCalls(), 1u) << IntersectKernelName(k);
  }
}

TEST_F(KernelDispatchTest, AutoResolvesToBestSupported) {
  const auto resolved = ResolveIntersectKernel(IntersectKernel::kAuto);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(*resolved, BestIntersectKernel());
  // No scope and an auto scope both run the best kernel.
  EXPECT_EQ(ActiveIntersectKernel(), BestIntersectKernel());
  {
    IntersectScope scope(IntersectKernel::kAuto);
    EXPECT_EQ(ActiveIntersectKernel(), BestIntersectKernel());
  }
  EXPECT_TRUE(IntersectKernelSupported(ActiveIntersectKernel()));
  EXPECT_TRUE(IntersectKernelSupported(IntersectKernel::kScalar));
}

TEST_F(KernelDispatchTest, SetHonorsSupportedKernelsAndRejectsOthers) {
  for (IntersectKernel k : kAllKernels) {
    const auto resolved = ResolveIntersectKernel(k);
    if (IntersectKernelSupported(k)) {
      ASSERT_TRUE(resolved.ok());
      EXPECT_EQ(*resolved, k);
      IntersectScope outer(*resolved);
      EXPECT_EQ(ActiveIntersectKernel(), k);
      {
        // Scopes nest and restore the enclosing kernel.
        IntersectScope inner(IntersectKernel::kScalar);
        EXPECT_EQ(ActiveIntersectKernel(), IntersectKernel::kScalar);
      }
      EXPECT_EQ(ActiveIntersectKernel(), k);
    } else {
      EXPECT_TRUE(resolved.status().IsInvalidArgument())
          << resolved.status().ToString();
    }
  }
}

TEST_F(KernelDispatchTest, DispatchedEntryPointsMatchOracleUnderEachKernel) {
  Random64 rng(4242);
  const auto a = MakeList(&rng, 300, 3, 5);
  const auto b = MakeList(&rng, 280, 3, 5);
  const auto skew_a = MakeList(&rng, 6, 400, 0);
  const std::vector<VertexId> expected = Oracle(a, b);
  const std::vector<VertexId> expected_skew = Oracle(skew_a, b);
  for (IntersectKernel k : {IntersectKernel::kScalar, IntersectKernel::kAvx2,
                            IntersectKernel::kAuto}) {
    if (!IntersectKernelSupported(k)) continue;
    IntersectScope scope(k);
    std::vector<VertexId> out;
    EXPECT_EQ(Intersect(a, b, &out), expected.size());
    EXPECT_EQ(out, expected);
    EXPECT_EQ(IntersectCount(a, b), expected.size());
    // Skewed pair takes the galloping arm of the adaptive dispatch.
    out.clear();
    EXPECT_EQ(Intersect(skew_a, b, &out), expected_skew.size());
    EXPECT_EQ(out, expected_skew);
    EXPECT_EQ(IntersectCount(skew_a, b), expected_skew.size());
  }
}

TEST_F(KernelDispatchTest, CountersAttributeCallsToTheActiveKernel) {
  Random64 rng(1);
  const auto a = MakeList(&rng, 64, 2, 0);
  const auto b = MakeList(&rng, 64, 2, 0);
  for (IntersectKernel k : kAllKernels) {
    if (!IntersectKernelSupported(k)) continue;
    IntersectScope scope(k);
    const IntersectCounters before = SnapshotIntersectCounters();
    const uint64_t n = IntersectCount(a, b);
    (void)n;
    const IntersectCounters delta =
        IntersectCounters::Delta(SnapshotIntersectCounters(), before);
    const int idx = static_cast<int>(k);
    EXPECT_EQ(delta.calls[idx], 1u) << IntersectKernelName(k);
    EXPECT_EQ(delta.elements[idx], a.size() + b.size())
        << IntersectKernelName(k);
    EXPECT_EQ(delta.TotalCalls(), 1u) << IntersectKernelName(k);
  }
}

}  // namespace
}  // namespace opt
