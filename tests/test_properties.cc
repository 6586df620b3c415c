// Cross-method property tests: every exact method in the repository must
// produce the identical triangle set on randomized graphs across
// generators, seeds, page sizes, and buffer budgets. This is the
// repo-wide invariant behind the paper's Theorem 1 / Lemma 1.
#include <gtest/gtest.h>

#include <tuple>

#include "baselines/ayz.h"
#include "baselines/cc.h"
#include "baselines/graphchi_tri.h"
#include "baselines/inmemory.h"
#include "baselines/mgt.h"
#include "core/iterator_model.h"
#include "core/opt_runner.h"
#include "distsim/distributed.h"
#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "gen/holme_kim.h"
#include "gen/rmat.h"
#include "graph/reorder.h"
#include "test_helpers.h"

namespace opt {
namespace {

enum class Gen { kErdosRenyi, kRmat, kHolmeKim };

CSRGraph MakeGraph(Gen gen, uint64_t seed) {
  switch (gen) {
    case Gen::kErdosRenyi:
      return GenerateErdosRenyi(300, 2400, seed);
    case Gen::kRmat: {
      RmatOptions options;
      options.scale = 9;
      options.edge_factor = 6;
      options.seed = seed;
      return GenerateRmat(options);
    }
    case Gen::kHolmeKim: {
      HolmeKimOptions options;
      options.num_vertices = 400;
      options.edges_per_vertex = 4;
      options.triad_probability = 0.4;
      options.seed = seed;
      return GenerateHolmeKim(options);
    }
  }
  return GraphBuilder::FromEdges({});
}

const char* GenName(Gen gen) {
  switch (gen) {
    case Gen::kErdosRenyi:
      return "er";
    case Gen::kRmat:
      return "rmat";
    case Gen::kHolmeKim:
      return "hk";
  }
  return "?";
}

using PropertyParam = std::tuple<Gen, uint64_t /*seed*/,
                                 uint32_t /*page size*/>;

class CrossMethodTest : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(CrossMethodTest, AllExactMethodsEmitTheSameTriangles) {
  const auto [gen, seed, page_size] = GetParam();
  CSRGraph g = MakeGraph(gen, seed);
  const auto oracle = testutil::OracleTriangles(g);
  const uint64_t count = oracle.size();

  // In-memory vertex iterator.
  {
    VectorSink sink;
    VertexIteratorInMemory(g, &sink);
    ASSERT_EQ(sink.Sorted(), oracle) << "in-memory VI";
  }
  // AYZ (count only).
  EXPECT_EQ(AyzTriangleCount(g), count) << "AYZ";

  auto store =
      testutil::MakeStore(g, Env::Default(), "prop", page_size);
  const uint32_t buffer =
      std::max(store->MaxRecordPages() * 2, store->num_pages() / 6);

  // OPT, edge- and vertex-iterator instances, overlapped with morphing.
  for (bool vertex_iter : {false, true}) {
    OptOptions options;
    options.m_in = buffer;
    options.m_ex = buffer;
    options.num_threads = 3;
    EdgeIteratorModel ei;
    VertexIteratorModel vi;
    OptRunner runner(store.get(),
                     vertex_iter
                         ? static_cast<const IteratorModel*>(&vi)
                         : static_cast<const IteratorModel*>(&ei),
                     options);
    VectorSink sink;
    Status s = runner.Run(&sink, nullptr);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_EQ(sink.Sorted(), oracle)
        << "OPT " << (vertex_iter ? "VI" : "EI");
  }
  // MGT.
  {
    MgtOptions options;
    options.memory_pages = buffer;
    VectorSink sink;
    ASSERT_TRUE(RunMgt(store.get(), &sink, options, nullptr).ok());
    ASSERT_EQ(sink.Sorted(), oracle) << "MGT";
  }
  // CC-Seq.
  {
    CcOptions options;
    options.memory_pages = buffer;
    options.temp_dir = testutil::ProcessTempDir();
    VectorSink sink;
    ASSERT_TRUE(
        RunChuCheng(store.get(), Env::Default(), &sink, options, nullptr)
            .ok());
    ASSERT_EQ(sink.Sorted(), oracle) << "CC-Seq";
  }
  // GraphChi-Tri.
  {
    GraphChiTriOptions options;
    options.memory_pages = buffer;
    options.temp_dir = testutil::ProcessTempDir();
    options.num_threads = 2;
    VectorSink sink;
    ASSERT_TRUE(RunGraphChiTri(store.get(), Env::Default(), &sink, options,
                               nullptr)
                    .ok());
    ASSERT_EQ(sink.Sorted(), oracle) << "GraphChi-Tri";
  }
  // Distributed simulators (counts).
  DistSimOptions dist;
  dist.nodes = 5;
  EXPECT_EQ(SimulateSV(g, dist)->triangles, count);
  EXPECT_EQ(SimulateAKM(g, dist)->triangles, count);
  EXPECT_EQ(SimulatePowerGraph(g, dist)->triangles, count);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrossMethodTest,
    ::testing::Combine(::testing::Values(Gen::kErdosRenyi, Gen::kRmat,
                                         Gen::kHolmeKim),
                       ::testing::Values(1ull, 2ull, 3ull),
                       ::testing::Values(128u, 512u)),
    [](const ::testing::TestParamInfo<PropertyParam>& info) {
      return std::string(GenName(std::get<0>(info.param))) + "_s" +
             std::to_string(std::get<1>(info.param)) + "_p" +
             std::to_string(std::get<2>(info.param));
    });

TEST(OrderInvarianceTest, TriangleCountInvariantUnderRelabeling) {
  // Triangle count is a graph invariant: the degree-order heuristic and
  // random permutations must not change it (§2.2).
  CSRGraph g = MakeGraph(Gen::kRmat, 9);
  const uint64_t count = testutil::OracleCount(g);
  EXPECT_EQ(testutil::OracleCount(DegreeOrder(g).graph), count);
  EXPECT_EQ(testutil::OracleCount(RandomOrder(g, 123).graph), count);
}

class BufferSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(BufferSweepTest, OptCorrectAtEveryBufferRatio) {
  // The paper sweeps 5%..25% buffer sizes (Figures 3a and 5): the result
  // must be identical everywhere.
  CSRGraph g = MakeGraph(Gen::kRmat, 4);
  auto store = testutil::MakeStore(g, Env::Default(), "buf_sweep", 256);
  const double percent = GetParam();
  const auto budget = static_cast<uint32_t>(
      std::max(2.0, store->num_pages() * percent / 100.0));
  OptOptions options;
  options.m_in = std::max(budget / 2 + 1, store->MaxRecordPages());
  options.m_ex = budget / 2 + 1;
  options.num_threads = 2;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  ASSERT_TRUE(runner.Run(&sink, nullptr).ok());
  EXPECT_EQ(sink.count(), testutil::OracleCount(g));
}

INSTANTIATE_TEST_SUITE_P(Ratios, BufferSweepTest,
                         ::testing::Values(5.0, 10.0, 15.0, 20.0, 25.0,
                                           60.0, 100.0));

class ThreadSweepTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ThreadSweepTest, OptCorrectAtEveryThreadCount) {
  CSRGraph g = MakeGraph(Gen::kHolmeKim, 6);
  auto store = testutil::MakeStore(g, Env::Default(), "thread_sweep", 256);
  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), store->num_pages() / 5);
  options.m_ex = options.m_in;
  options.num_threads = GetParam();
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  ASSERT_TRUE(runner.Run(&sink, nullptr).ok());
  EXPECT_EQ(sink.count(), testutil::OracleCount(g));
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadSweepTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

class FaultSweepTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(FaultSweepTest, FailureAtAnyPointIsCleanErrorOrCorrectResult) {
  // Inject an I/O failure after N successful reads, at several N: the
  // runner must either finish with the exact count (failure landed
  // after the last read) or surface the typed Unavailable — never hang,
  // crash, or return a wrong count.
  CSRGraph g = MakeGraph(Gen::kRmat, 12);
  FaultInjectingEnv fenv(Env::Default(),
                         testutil::FailPageReadsAfter(GetParam()));
  auto store = testutil::OpenStore(
      &fenv, testutil::CreateStore(g, Env::Default(), "fault_sweep", 256));
  const uint64_t oracle = testutil::OracleCount(g);

  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), store->num_pages() / 6);
  options.m_ex = options.m_in;
  options.num_threads = 3;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  Status s = runner.Run(&sink, nullptr);
  if (s.ok()) {
    EXPECT_EQ(sink.count(), oracle);
  } else {
    EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(FailPoints, FaultSweepTest,
                         ::testing::Values(0, 1, 3, 7, 17, 41, 97, 231,
                                           517, 1203, 5000, 50000));

TEST(RepeatabilityTest, OptDeterministicAcrossRuns) {
  CSRGraph g = MakeGraph(Gen::kErdosRenyi, 10);
  auto store = testutil::MakeStore(g, Env::Default(), "repeat", 256);
  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), store->num_pages() / 4);
  options.m_ex = options.m_in;
  options.num_threads = 4;
  EdgeIteratorModel model;
  std::vector<Triangle> first;
  for (int run = 0; run < 3; ++run) {
    OptRunner runner(store.get(), &model, options);
    VectorSink sink;
    ASSERT_TRUE(runner.Run(&sink, nullptr).ok());
    if (run == 0) {
      first = sink.Sorted();
    } else {
      EXPECT_EQ(sink.Sorted(), first);
    }
  }
}

}  // namespace
}  // namespace opt
