// Tests of the internal area's SuccessorIndex. A randomized sweep builds
// small ER, R-MAT and Holme–Kim stores (with isolated vertices and lists
// longer than a page, at page sizes from 256 to 4096 bytes) and checks
// the index of every PlanIteration range against CSRGraph::Successors.
// Damaged stores whose pages were re-stamped with a matching CRC check
// that OptRunner::Run refuses a missing, incomplete or unsorted internal
// record, or an id past |V|, with Corruption.
//
// The fuzz volume is tunable without a rebuild:
//   OPT_FUZZ_CASES=500000 OPT_FUZZ_SEED=n ./test_successor_index
// A case is one internal-area size on one store, and each store (one
// seed) serves up to eight of them; a failing store prints a one-line
// repro with its exact seed.
#include "core/successor_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "core/iterator_model.h"
#include "core/opt_runner.h"
#include "core/triangle_sink.h"
#include "gen/erdos_renyi.h"
#include "gen/holme_kim.h"
#include "gen/rmat.h"
#include "graph/builder.h"
#include "storage/page.h"
#include "test_helpers.h"
#include "util/coding.h"
#include "util/random.h"

namespace opt {
namespace {

/// Every page of `store`, read into one buffer.
struct StorePages {
  std::vector<char> bytes;
  std::vector<const char*> data;

  explicit StorePages(const GraphStore& store) {
    const uint32_t page_size = store.page_size();
    bytes.resize(static_cast<size_t>(store.num_pages()) * page_size);
    for (uint32_t pid = 0; pid < store.num_pages(); ++pid) {
      char* dst = bytes.data() + static_cast<size_t>(pid) * page_size;
      EXPECT_TRUE(store.file()->ReadPage(pid, dst).ok());
      data.push_back(dst);
    }
  }

  std::span<const char* const> Area(const IterationPlan& plan) const {
    return std::span<const char* const>(data).subspan(plan.pid_lo,
                                                      plan.num_pages());
  }
};

/// A small random graph: ER, R-MAT or Holme–Kim, its ids spread by a
/// stride so the ids in between are isolated, plus a hub whose list is
/// longer than a 256-byte page.
CSRGraph FuzzGraph(Random64* rng) {
  CSRGraph base;
  switch (rng->Uniform(3)) {
    case 0: {
      const VertexId n = 2 + static_cast<VertexId>(rng->Uniform(200));
      base = GenerateErdosRenyi(n, rng->Uniform(4 * n), rng->Next());
      break;
    }
    case 1: {
      RmatOptions options;
      options.scale = 3 + static_cast<uint32_t>(rng->Uniform(5));
      options.edge_factor = 1 + static_cast<uint32_t>(rng->Uniform(8));
      options.seed = rng->Next();
      base = GenerateRmat(options);
      break;
    }
    default: {
      HolmeKimOptions options;
      options.num_vertices = 8 + static_cast<VertexId>(rng->Uniform(200));
      options.edges_per_vertex = 1 + static_cast<uint32_t>(rng->Uniform(5));
      options.triad_probability = rng->NextDouble();
      options.seed = rng->Next();
      base = GenerateHolmeKim(options);
      break;
    }
  }
  const VertexId stride = 1 + static_cast<VertexId>(rng->Uniform(3));
  const VertexId shift = static_cast<VertexId>(rng->Uniform(stride + 2));
  const VertexId n = std::max<VertexId>(base.num_vertices(), 1);
  GraphBuilder b;
  for (VertexId u = 0; u < base.num_vertices(); ++u) {
    for (VertexId w : base.Successors(u)) {
      b.AddEdge(u * stride + shift, w * stride + shift);
    }
  }
  const VertexId hub = static_cast<VertexId>(rng->Uniform(n)) * stride;
  const uint64_t spokes = 60 + rng->Uniform(200);
  for (uint64_t i = 0; i < spokes; ++i) {
    const VertexId w = static_cast<VertexId>(rng->Uniform(n * stride + 1));
    if (w != hub) b.AddEdge(hub, w);
  }
  return std::move(b).Build();
}

/// Checks the index of every iteration under internal-area size `m_in`,
/// all through `index`, whose buffers earlier builds have used.
void CheckPlans(const CSRGraph& g, const GraphStore& store,
                const StorePages& pages, uint32_t m_in,
                SuccessorIndex* index) {
  const std::string tag = "|V|=" + std::to_string(g.num_vertices()) +
                          " page_size=" + std::to_string(store.page_size()) +
                          " m_in=" + std::to_string(m_in);
  for (VertexId v_start = 0; v_start < g.num_vertices();) {
    auto plan = store.PlanIteration(v_start, m_in);
    ASSERT_TRUE(plan.ok()) << tag << ": " << plan.status().ToString();
    const Status s = index->Build(store, *plan, pages.Area(*plan));
    ASSERT_TRUE(s.ok()) << tag << ": " << s.ToString();
    for (VertexId u = plan->v_lo; u <= plan->v_hi; ++u) {
      const auto want = g.Successors(u);
      const auto got = index->Succ(u);
      ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin(),
                             got.end()))
          << tag << " u=" << u << " plan [" << plan->v_lo << ", "
          << plan->v_hi << "]";
    }
    v_start = plan->v_hi + 1;
  }
}

/// The most internal-area sizes one store is checked under.
constexpr uint32_t kSizesPerStore = 8;

/// Builds one store for `seed` and checks its plans under up to
/// kSizesPerStore internal-area sizes, one case each, all through one
/// index. Returns the number of cases run.
uint64_t CheckOneStore(uint64_t seed, uint64_t max_cases) {
  Random64 rng(seed);
  const CSRGraph g = FuzzGraph(&rng);
  const uint32_t page_size =
      256 + 64 * static_cast<uint32_t>(rng.Uniform(61));
  const std::string base = testutil::CreateStore(g, Env::Default(),
                                                 "succ_fuzz", page_size);
  auto store = testutil::OpenStore(Env::Default(), base);
  uint64_t cases = 0;
  if (store != nullptr) {
    const StorePages pages(*store);
    // Every size from the largest record to the whole store, or a random
    // selection of them when there are more.
    const uint32_t smallest = store->MaxRecordPages();
    const uint32_t sizes = store->num_pages() - smallest + 1;
    SuccessorIndex index;
    for (uint32_t i = 0; i < std::min(sizes, kSizesPerStore); ++i) {
      if (cases == max_cases || ::testing::Test::HasFailure()) break;
      const uint32_t m_in =
          smallest + (sizes <= kSizesPerStore
                          ? i
                          : static_cast<uint32_t>(rng.Uniform(sizes)));
      CheckPlans(g, *store, pages, m_in, &index);
      ++cases;
    }
  }
  store.reset();
  (void)Env::Default()->DeleteFile(GraphStore::PagesPath(base));
  (void)Env::Default()->DeleteFile(GraphStore::MetaPath(base));
  return std::max<uint64_t>(cases, 1);
}

TEST(SuccessorIndexFuzz, EveryPlanRangeMatchesCsrSuccessors) {
  const uint64_t cases = testutil::EnvU64("OPT_FUZZ_CASES", 50000);
  const uint64_t base_seed =
      testutil::EnvU64("OPT_FUZZ_SEED", 0x5ACC1DEull);
  for (uint64_t done = 0, seed = base_seed; done < cases; ++seed) {
    done += CheckOneStore(seed, cases - done);
    if (::testing::Test::HasFailure()) {
      std::fprintf(stderr,
                   "successor index fuzz repro: OPT_FUZZ_SEED=%" PRIu64
                   " OPT_FUZZ_CASES=%u ./test_successor_index "
                   "--gtest_filter=SuccessorIndexFuzz.*\n",
                   seed, kSizesPerStore);
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Damaged internal areas: OptRunner::Run must return Corruption.
// ---------------------------------------------------------------------------

constexpr uint32_t kPageSize = 256;

/// Where one segment sits in a page image: its header and neighbours.
struct SegmentAt {
  Segment seg;
  size_t header = 0;  // byte offset of the segment header in the page
};

/// The first single-segment record on `page` for which `want` holds,
/// or nullopt.
std::optional<SegmentAt> FindRecord(
    const char* page, const std::function<bool(const Segment&)>& want) {
  const PageView view(page, kPageSize);
  for (uint32_t s = 0; s < view.num_slots(); ++s) {
    const Segment seg = view.GetSegment(s);
    if (!seg.IsFirstSegment() || !seg.IsLastSegment() || !want(seg)) {
      continue;
    }
    const auto* ids = reinterpret_cast<const char*>(seg.neighbors.data());
    return SegmentAt{seg, static_cast<size_t>(ids - page) -
                              kSegmentHeaderSize};
  }
  return std::nullopt;
}

/// Damages one page of a fresh ER store with `damage`, re-stamps its CRC
/// and runs OPT on the result for both models, serial and with 4
/// threads, with an internal area that holds the whole graph. Every run
/// must fail with Corruption whose message contains `expect`, which
/// `damage` may fill in.
void ExpectRunRefusesDamage(
    const std::string& tag,
    const std::function<void(char* page, VertexId n, std::string* expect)>&
        damage) {
  const CSRGraph g = GenerateErdosRenyi(200, 2000, 71);
  const std::string base =
      testutil::CreateStore(g, Env::Default(), tag, kPageSize);
  std::string pages;
  {
    std::ifstream in(GraphStore::PagesPath(base), std::ios::binary);
    ASSERT_TRUE(in.good());
    pages.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // A page in the middle of the area, so the records before and after
  // the damaged one are intact.
  const uint32_t pid =
      static_cast<uint32_t>(pages.size() / kPageSize / 2);
  char* page = pages.data() + static_cast<size_t>(pid) * kPageSize;
  std::string expect;
  damage(page, g.num_vertices(), &expect);
  ASSERT_FALSE(expect.empty());
  EncodeFixed32(page + 16, ComputePageCrc(page, kPageSize));
  {
    std::ofstream out(GraphStore::PagesPath(base),
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(out.good());
    out.write(pages.data(), static_cast<std::streamsize>(pages.size()));
  }

  // Every CRC still matches...
  auto store = GraphStore::Open(Env::Default(), base, /*verify_pages=*/true);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  // ...and the run still refuses the page.
  EdgeIteratorModel ei;
  VertexIteratorModel vi;
  for (const IteratorModel* model :
       {static_cast<const IteratorModel*>(&ei),
        static_cast<const IteratorModel*>(&vi)}) {
    for (uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(model->name()) +
                   " threads=" + std::to_string(threads));
      OptOptions options;
      options.m_in = (*store)->num_pages();
      options.m_ex = options.m_in;
      options.num_threads = threads;
      options.macro_overlap = threads > 1;
      OptRunner runner(store->get(), model, options);
      CountingSink sink;
      const Status s = runner.Run(&sink, nullptr);
      EXPECT_TRUE(s.IsCorruption()) << s.ToString();
      EXPECT_NE(s.ToString().find(expect), std::string::npos)
          << s.ToString() << " lacks \"" << expect << "\"";
    }
  }
}

TEST(SuccessorIndexCorruption, IncompleteRecordFailsTheRun) {
  // A record that claims one id more than it holds used to read as an
  // empty list, so its triangles went missing without an error.
  ExpectRunRefusesDamage("succ_incomplete", [](char* page, VertexId,
                                               std::string* expect) {
    const auto at = FindRecord(
        page, [](const Segment& s) { return !s.neighbors.empty(); });
    ASSERT_TRUE(at.has_value());
    EncodeFixed32(page + at->header + 4, at->seg.total_degree + 1);
    *expect = "vertex " + std::to_string(at->seg.vertex) +
              " has an incomplete record";
  });
}

TEST(SuccessorIndexCorruption, MissingRecordFailsTheRun) {
  // The record of v relabelled as v + 1: v has no record, and v + 1 two.
  ExpectRunRefusesDamage("succ_missing", [](char* page, VertexId,
                                            std::string* expect) {
    const auto at = FindRecord(page, [](const Segment&) { return true; });
    ASSERT_TRUE(at.has_value());
    EncodeFixed32(page + at->header, at->seg.vertex + 1);
    *expect = "vertex " + std::to_string(at->seg.vertex) + " has no record";
  });
}

TEST(SuccessorIndexCorruption, UnsortedSuccessorsFailTheRun) {
  // Two successors swapped: n_succ no longer increases.
  ExpectRunRefusesDamage("succ_unsorted", [](char* page, VertexId,
                                             std::string* expect) {
    const auto at = FindRecord(page, [](const Segment& s) {
      return s.neighbors.size() >= 2 &&
             s.neighbors[s.neighbors.size() - 2] > s.vertex;
    });
    ASSERT_TRUE(at.has_value());
    const size_t k = at->seg.neighbors.size();
    const VertexId hi = at->seg.neighbors[k - 1];
    const VertexId lo = at->seg.neighbors[k - 2];
    char* ids = page + at->header + kSegmentHeaderSize;
    EncodeFixed32(ids + 4 * (k - 2), hi);
    EncodeFixed32(ids + 4 * (k - 1), lo);
    *expect = "lists successor " + std::to_string(lo) + " after " +
              std::to_string(hi);
  });
}

TEST(SuccessorIndexCorruption, SuccessorBelowItsVertexFailsTheRun) {
  // The last predecessor and the first successor swapped: an id below
  // the vertex follows one above it.
  ExpectRunRefusesDamage("succ_below", [](char* page, VertexId,
                                          std::string* expect) {
    const auto at = FindRecord(page, [](const Segment& s) {
      return !s.neighbors.empty() && s.neighbors.front() < s.vertex &&
             s.neighbors.back() > s.vertex;
    });
    ASSERT_TRUE(at.has_value());
    const auto nbrs = at->seg.neighbors;
    const size_t first_succ = static_cast<size_t>(
        std::upper_bound(nbrs.begin(), nbrs.end(), at->seg.vertex) -
        nbrs.begin());
    const VertexId prec = nbrs[first_succ - 1];
    const VertexId succ = nbrs[first_succ];
    char* ids = page + at->header + kSegmentHeaderSize;
    EncodeFixed32(ids + 4 * (first_succ - 1), succ);
    EncodeFixed32(ids + 4 * first_succ, prec);
    *expect = "lists successor " + std::to_string(prec) + " after " +
              std::to_string(succ);
  });
}

TEST(SuccessorIndexCorruption, IdPastVertexCountFailsTheRun) {
  // The largest successor raised past |V| keeps the list sorted. The
  // edge model meets it first as an external candidate in phase A, the
  // vertex model in the index; both name the id.
  ExpectRunRefusesDamage("succ_range", [](char* page, VertexId n,
                                          std::string* expect) {
    const auto at = FindRecord(page, [](const Segment& s) {
      return !s.neighbors.empty() && s.neighbors.back() > s.vertex;
    });
    ASSERT_TRUE(at.has_value());
    const size_t k = at->seg.neighbors.size();
    char* ids = page + at->header + kSegmentHeaderSize;
    EncodeFixed32(ids + 4 * (k - 1), n + 7);
    *expect = "neighbour " + std::to_string(n + 7);
  });
}

}  // namespace
}  // namespace opt
