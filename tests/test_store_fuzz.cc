// Store fuzz: mutates the record bytes and segment headers of small
// stores and re-stamps each damaged page's CRC, so nothing but the
// record checks stands between the damage and a run. Each mutated store
// is then opened and read by ScanRecords and by OPT with both models, in
// core and out of core, serial and with 4 threads. Every one must return
// OK or Corruption — never crash, hang or trip a sanitizer — and when the
// scan still yields every original record, every OPT run must succeed
// with the oracle's count.
//
// The fuzz volume is tunable without a rebuild:
//   OPT_FUZZ_CASES=500000 OPT_FUZZ_SEED=n ./test_store_fuzz
// A case is one reader — ScanRecords or one of OPT's eight
// configurations — on one mutated store, so each mutated store is nine
// cases. Each base store (one seed) serves up to kVariantsPerStore
// mutated stores; a failing store prints a one-line repro with its
// exact seed, and the test prints how the mutated stores read.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/iterator_model.h"
#include "core/opt_runner.h"
#include "core/triangle_sink.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "storage/page.h"
#include "storage/record_scanner.h"
#include "test_helpers.h"
#include "util/coding.h"
#include "util/random.h"

namespace opt {
namespace {

/// The most mutated stores one base store serves.
constexpr uint32_t kVariantsPerStore = 8;

/// Readers per mutated store: ScanRecords, then OPT with two models,
/// two internal-area sizes and two thread counts.
constexpr uint64_t kCasesPerVariant = 9;

/// How the mutated stores read under ScanRecords.
struct Tally {
  uint64_t refused = 0;   // Corruption
  uint64_t original = 0;  // every original record, unchanged
  uint64_t changed = 0;   // OK, but another graph
};

/// A small ER graph, half the time with a hub whose list spans pages.
CSRGraph FuzzGraph(Random64* rng) {
  const VertexId n = 2 + static_cast<VertexId>(rng->Uniform(80));
  const CSRGraph er = GenerateErdosRenyi(n, rng->Uniform(4 * n), rng->Next());
  GraphBuilder b;
  for (VertexId u = 0; u < er.num_vertices(); ++u) {
    for (VertexId w : er.Successors(u)) b.AddEdge(u, w);
  }
  if (rng->Uniform(2) == 0) {
    const VertexId hub = static_cast<VertexId>(rng->Uniform(n));
    for (VertexId w = 0; w < n; ++w) {
      if (w != hub && rng->Uniform(4) != 0) b.AddEdge(hub, w);
    }
  }
  b.AddEdge(0, n - 1);  // keeps |V| = n
  return std::move(b).Build();
}

/// Rewrites one to three 32-bit words of `pages` (a store's page file),
/// each a segment header field or a neighbour id, and re-stamps the CRC
/// of every page it touches. A page whose layout an earlier rewrite
/// broke is left alone, so no rewrite lands outside its page.
void Mutate(std::string* pages, uint32_t page_size, VertexId n,
            Random64* rng) {
  const uint32_t num_pages = static_cast<uint32_t>(pages->size() / page_size);
  const uint64_t mutations = 1 + rng->Uniform(3);
  for (uint64_t m = 0; m < mutations; ++m) {
    const uint32_t pid = static_cast<uint32_t>(rng->Uniform(num_pages));
    char* page = pages->data() + static_cast<size_t>(pid) * page_size;
    const PageView view(page, page_size);
    if (!view.Validate(pid).ok() || view.num_slots() == 0) continue;
    const Segment seg =
        view.GetSegment(static_cast<uint32_t>(rng->Uniform(view.num_slots())));
    char* header = page + (reinterpret_cast<const char*>(seg.neighbors.data()) -
                           page) -
                   kSegmentHeaderSize;
    // Words 0-3 are vertex, total degree, offset and count; the rest ids.
    const uint64_t words = 4 + seg.neighbors.size();
    char* at = header + 4 * rng->Uniform(words);
    const uint32_t old = DecodeFixed32(at);
    uint32_t value = 0;
    switch (rng->Uniform(5)) {
      case 0: value = old + 1; break;
      case 1: value = old - 1; break;
      case 2: value = static_cast<uint32_t>(rng->Uniform(n + 2)); break;
      case 3: value = static_cast<uint32_t>(rng->Next()); break;
      default:  // another word of the same segment
        value = DecodeFixed32(header + 4 * rng->Uniform(words));
        break;
    }
    EncodeFixed32(at, value);
    EncodeFixed32(page + 16, ComputePageCrc(page, page_size));
  }
}

/// True if ScanRecords succeeds and yields exactly g's records. Fails
/// the test if the scan returns anything but OK or Corruption.
bool ScanYieldsOriginal(const GraphStore& store, const CSRGraph& g,
                        Tally* tally) {
  bool same = true;
  VertexId next = 0;
  const Status s = ScanRecords(
      store, 0, store.num_pages() - 1,
      [&](VertexId v, const AdjacencyRef& adj) {
        const auto want = g.Neighbors(v);
        same = same && v == next &&
               std::equal(want.begin(), want.end(), adj.all.begin(),
                          adj.all.end());
        next = v + 1;
      });
  EXPECT_TRUE(s.ok() || s.IsCorruption()) << "scan: " << s.ToString();
  same = same && next == g.num_vertices();
  ++(!s.ok() ? tally->refused : same ? tally->original : tally->changed);
  return s.ok() && same;
}

/// Writes `pages` over the store at `base`, then scans it and runs OPT
/// in every configuration.
void CheckVariant(const CSRGraph& g, uint64_t oracle, const std::string& base,
                  const std::string& pages, Tally* tally) {
  {
    std::ofstream out(GraphStore::PagesPath(base),
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(out.good());
    out.write(pages.data(), static_cast<std::streamsize>(pages.size()));
  }
  auto store = GraphStore::Open(Env::Default(), base);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const bool original = ScanYieldsOriginal(**store, g, tally);

  const uint32_t num_pages = (*store)->num_pages();
  const uint32_t out_of_core =
      std::max((*store)->MaxRecordPages(), num_pages / 4);
  EdgeIteratorModel ei;
  VertexIteratorModel vi;
  for (const IteratorModel* model :
       {static_cast<const IteratorModel*>(&ei),
        static_cast<const IteratorModel*>(&vi)}) {
    for (uint32_t m_in : {num_pages, out_of_core}) {
      for (uint32_t threads : {1u, 4u}) {
        SCOPED_TRACE(std::string(model->name()) +
                     " m_in=" + std::to_string(m_in) + "/" +
                     std::to_string(num_pages) +
                     " threads=" + std::to_string(threads));
        OptOptions options;
        options.m_in = m_in;
        options.m_ex = m_in;
        options.num_threads = threads;
        options.macro_overlap = threads > 1;
        options.io_queue_depth = 2;
        OptRunner runner(store->get(), model, options);
        CountingSink sink;
        const Status s = runner.Run(&sink, nullptr);
        ASSERT_TRUE(s.ok() || s.IsCorruption()) << s.ToString();
        if (original) {
          ASSERT_TRUE(s.ok()) << "scan yields the original records, but "
                              << s.ToString();
          ASSERT_EQ(sink.count(), oracle);
        }
      }
    }
  }
}

/// Builds one base store for `seed` and checks up to kVariantsPerStore
/// mutations of it, kCasesPerVariant cases each, stopping once
/// `max_cases` are done. Returns the number of cases run.
uint64_t CheckOneStore(uint64_t seed, uint64_t max_cases, Tally* tally) {
  Random64 rng(seed);
  const CSRGraph g = FuzzGraph(&rng);
  const uint64_t oracle = testutil::OracleCount(g);
  const uint32_t page_size = rng.Uniform(2) == 0 ? 256 : 512;
  const std::string base =
      testutil::CreateStore(g, Env::Default(), "store_fuzz", page_size);
  std::string original;
  {
    std::ifstream in(GraphStore::PagesPath(base), std::ios::binary);
    EXPECT_TRUE(in.good());
    original.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  uint64_t cases = 0;
  for (uint32_t variant = 0; variant < kVariantsPerStore &&
                             cases < max_cases &&
                             !::testing::Test::HasFailure();
       ++variant) {
    std::string pages = original;
    Mutate(&pages, page_size, g.num_vertices(), &rng);
    SCOPED_TRACE("variant " + std::to_string(variant));
    CheckVariant(g, oracle, base, pages, tally);
    cases += kCasesPerVariant;
  }
  (void)Env::Default()->DeleteFile(GraphStore::PagesPath(base));
  (void)Env::Default()->DeleteFile(GraphStore::MetaPath(base));
  return std::max<uint64_t>(cases, 1);
}

TEST(StoreFuzz, MutatedStoresFailWithCorruptionOrCountExactly) {
  const uint64_t cases = testutil::EnvU64("OPT_FUZZ_CASES", 50000);
  const uint64_t base_seed = testutil::EnvU64("OPT_FUZZ_SEED", 0x5701EF2ull);
  Tally tally;
  for (uint64_t done = 0, seed = base_seed; done < cases; ++seed) {
    done += CheckOneStore(seed, cases - done, &tally);
    if (::testing::Test::HasFailure()) {
      std::fprintf(stderr,
                   "store fuzz repro: OPT_FUZZ_SEED=%" PRIu64
                   " OPT_FUZZ_CASES=%" PRIu64 " ./test_store_fuzz\n",
                   seed, kVariantsPerStore * kCasesPerVariant);
      return;
    }
  }
  std::fprintf(stderr,
               "store fuzz: %" PRIu64 " mutated stores: %" PRIu64
               " refused, %" PRIu64 " read as the original, %" PRIu64
               " read as another graph\n",
               tally.refused + tally.original + tally.changed, tally.refused,
               tally.original, tally.changed);
}

}  // namespace
}  // namespace opt
