// Randomized differential tests for every intersection kernel variant
// (scalar merge/galloping, AVX2, and the mark-and-probe bitmap probes)
// against a std::set_intersection oracle, over adversarial inputs:
// empty lists, singletons, all-equal lists, no-overlap interleavings,
// duplicates at SIMD block boundaries, lengths straddling register
// tails (7/8/9, 15/16/17), ids straddling 64-bit word and 256-bit lane
// boundaries, and heavily skewed hub/tail size ratios. Also covers
// kernel selection itself (parse/resolve/scope, per-kernel counters).
//
// The bitmap fuzz volume is tunable without a rebuild:
//   OPT_FUZZ_CASES=500000 OPT_FUZZ_SEED=n ./test_intersect_fuzz
// A failing trial prints a one-line repro with the exact seed.
#include "graph/intersect.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "test_helpers.h"
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
// Mark-and-probe bitmap: differential fuzz against the set_intersection
// oracle.
// ---------------------------------------------------------------------------

std::vector<VertexId> Dedup(std::vector<VertexId> v) {
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

/// Runs the mark-and-probe cycle the iterator models run, on one
/// bitmap: mark the de-duplicated (strictly increasing) `a`, probe it
/// with `b` through both probes, clear; then the same with the roles
/// swapped. Bitmaps have set semantics, so the expected result is
/// std::set_intersection over the de-duplicated inputs, and each clear
/// must leave every word zero for the next mark.
void CheckMarkerProbes(const std::vector<VertexId>& a,
                         const std::vector<VertexId>& b,
                         const std::string& label) {
  const std::vector<VertexId> expected = Oracle(Dedup(a), Dedup(b));
  VertexId universe = 1;
  if (!a.empty()) universe = std::max(universe, a.back() + 1);
  if (!b.empty()) universe = std::max(universe, b.back() + 1);
  DenseBitmap marker(universe);
  const std::string tag = label + " |a|=" + std::to_string(a.size()) +
                          " |b|=" + std::to_string(b.size());
  for (const bool swap : {false, true}) {
    const std::vector<VertexId> marked = Dedup(swap ? b : a);
    const std::vector<VertexId>& probe = swap ? a : b;
    const std::string side = tag + (swap ? " marked=b" : " marked=a");
    marker.SetDistinct(marked);
    ASSERT_EQ(CountBitmapSparse(probe, marker), expected.size()) << side;
    // Stale buffer contents past the result must not leak into it.
    std::vector<VertexId> out(probe.size() + 1, 0xDEADu);
    out.resize(CollectBitmapSparse(probe, marker, out.data()));
    ASSERT_EQ(out, expected) << side;
    marker.ClearFrom(marked);
    for (uint64_t word : marker.words()) ASSERT_EQ(word, 0u) << side;
  }
}

TEST(BitmapFuzzTest, AdversarialFixedCases) {
  const std::vector<VertexId> empty;
  const std::vector<VertexId> one{7};
  const std::vector<VertexId> run{5, 5, 5, 5, 5, 5, 5, 5, 5};
  const std::vector<VertexId> evens{0, 2, 4, 6, 8, 10, 12, 14, 16, 18};
  const std::vector<VertexId> odds{1, 3, 5, 7, 9, 11, 13, 15, 17, 19};
  CheckMarkerProbes(empty, empty, "empty-empty");
  CheckMarkerProbes(empty, evens, "empty-list");
  CheckMarkerProbes(evens, empty, "list-empty");
  CheckMarkerProbes(one, one, "singleton-hit");
  CheckMarkerProbes(one, evens, "singleton-miss");
  CheckMarkerProbes(run, run, "all-equal");
  CheckMarkerProbes(run, one, "all-equal-vs-singleton");
  CheckMarkerProbes(evens, odds, "no-overlap-interleaved");
  CheckMarkerProbes(evens, evens, "identical");
}

TEST(BitmapFuzzTest, IdsStraddlingWordAndLaneBoundaries) {
  // Ids packed around every 64-bit word edge and 256-bit lane edge of
  // the bitmap: the word index and bit shift of marking and probing are
  // where an off-by-one would hide, and ClearFrom zeroes whole words, so
  // every id sharing a word with a marked one must read clear after.
  const std::vector<VertexId> edges{0,   1,   62,  63,  64,  65,  126, 127,
                                    128, 129, 190, 191, 192, 193, 254, 255,
                                    256, 257, 511, 512, 513, 1023, 1024, 1025};
  std::vector<VertexId> lows, highs;
  for (VertexId v : edges) (v < 192 ? lows : highs).push_back(v);
  CheckMarkerProbes(edges, edges, "word-lane-identical");
  CheckMarkerProbes(lows, edges, "word-lane-prefix");
  CheckMarkerProbes(highs, edges, "word-lane-suffix");
  CheckMarkerProbes(lows, highs, "word-lane-disjoint-split");
  for (VertexId v : edges) {
    CheckMarkerProbes({v}, edges, "word-lane-singleton");
  }
}

TEST(BitmapFuzzTest, RandomizedBitmapEqualsSetIntersection) {
  // The ≥50k-case differential sweep (the per-case helper marks each
  // side in turn and runs both probes, so the probe-level case count is
  // a multiple of this). Each trial reseeds from its own derived seed,
  // so the printed repro line replays just the failing trial.
  const uint64_t cases = testutil::EnvU64("OPT_FUZZ_CASES", 50000);
  const uint64_t base_seed =
      testutil::EnvU64("OPT_FUZZ_SEED", 0xB17A15EEDull);
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
    CheckMarkerProbes(a, b, "bitmap-fuzz seed=" + std::to_string(seed));
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

// ---------------------------------------------------------------------------
// Kernel selection: parse, resolve, and the per-thread scope.
// ---------------------------------------------------------------------------

class KernelDispatchTest : public ::testing::Test {
 protected:
  void TearDown() override {
    // Every scope a test opens must have been closed again.
    EXPECT_EQ(ActiveIntersectKernel(), BestIntersectKernel());
  }
};

TEST_F(KernelDispatchTest, ParseAcceptsKnownNamesOnly) {
  for (IntersectKernel k : {IntersectKernel::kScalar, IntersectKernel::kAvx2,
                            IntersectKernel::kAuto}) {
    auto parsed = ParseIntersectKernel(IntersectKernelName(k));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, k);
  }
  // The deleted bitmap kernels are no longer selectable; the probe's
  // counter slot keeps its name but is not a kernel either.
  for (const char* gone : {"bitmap", "bitmap_scalar"}) {
    const Status s = ParseIntersectKernel(gone).status();
    EXPECT_TRUE(s.IsInvalidArgument()) << gone;
    EXPECT_NE(s.ToString().find("scalar|avx2|auto"), std::string::npos)
        << s.ToString();
  }
  EXPECT_TRUE(ParseIntersectKernel("sse").status().IsInvalidArgument());
  EXPECT_FALSE(ParseIntersectKernel("sse9").ok());
  EXPECT_FALSE(ParseIntersectKernel("").ok());
  EXPECT_FALSE(ParseIntersectKernel("AUTO").ok());
  EXPECT_FALSE(ParseIntersectKernel("bitmaps").ok());
  EXPECT_FALSE(ParseIntersectKernel("BITMAP").ok());
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
