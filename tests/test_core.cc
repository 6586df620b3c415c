// Tests for the OPT core: sinks, iterator models, the
// ideal method, and the OPT runner in all its configurations, verified
// against the in-memory edge-iterator oracle.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/ideal.h"
#include "core/iterator_model.h"
#include "core/opt_runner.h"
#include "core/triangle_sink.h"
#include "gen/erdos_renyi.h"
#include "gen/holme_kim.h"
#include "gen/rmat.h"
#include "graph/builder.h"
#include "test_helpers.h"
#include "util/stopwatch.h"

namespace opt {
namespace {

CSRGraph PaperGraph() {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.AddEdge(2, 5);
  b.AddEdge(2, 6);
  b.AddEdge(2, 7);
  b.AddEdge(3, 4);
  b.AddEdge(3, 5);
  b.AddEdge(4, 5);
  b.AddEdge(5, 6);
  b.AddEdge(6, 7);
  return std::move(b).Build();
}

TEST(CountingSinkTest, CountsAcrossEmits) {
  CountingSink sink;
  const VertexId ws1[] = {3, 4};
  const VertexId ws2[] = {9};
  sink.Emit(0, 1, ws1);
  sink.Emit(2, 5, ws2);
  EXPECT_EQ(sink.count(), 3u);
  sink.Reset();
  EXPECT_EQ(sink.count(), 0u);
}

TEST(CountingSinkTest, ConcurrentEmitAndAddCountSumExactly) {
  // Threads mix per-set Emit with bulk AddCount, as concurrent runs of
  // both paths would; every triangle lands in exactly one stripe.
  CountingSink sink;
  EXPECT_TRUE(sink.counts_only());
  constexpr int kThreads = 8;
  constexpr uint64_t kRounds = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink, t] {
      const VertexId ws[] = {5, 6, 7};
      for (uint64_t i = 0; i < kRounds; ++i) {
        if ((i + t) % 2 == 0) {
          sink.Emit(0, 1, ws);
        } else {
          sink.AddCount(i % 5);
        }
      }
    });
  }
  uint64_t want = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kRounds; ++i) {
      want += (i + t) % 2 == 0 ? 3 : i % 5;
    }
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(sink.count(), want);
  sink.Reset();
  EXPECT_EQ(sink.count(), 0u);
}

TEST(VectorSinkTest, SortedOutput) {
  VectorSink sink;
  const VertexId ws1[] = {7};
  const VertexId ws2[] = {3, 5};
  sink.Emit(2, 4, ws1);
  sink.Emit(0, 1, ws2);
  auto out = sink.Sorted();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], (Triangle{0, 1, 3}));
  EXPECT_EQ(out[1], (Triangle{0, 1, 5}));
  EXPECT_EQ(out[2], (Triangle{2, 4, 7}));
}

TEST(PerVertexCountSinkTest, AttributesToAllThreeVertices) {
  PerVertexCountSink sink(6);
  const VertexId ws[] = {4, 5};
  sink.Emit(1, 2, ws);  // triangles (1,2,4) and (1,2,5)
  auto counts = sink.Counts();
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 2u);
  EXPECT_EQ(counts[4], 1u);
  EXPECT_EQ(counts[5], 1u);
  EXPECT_EQ(sink.total(), 2u);
}

TEST(TeeSinkTest, FansOut) {
  CountingSink a;
  VectorSink b;
  TeeSink tee({&a, &b});
  const VertexId ws[] = {5};
  tee.Emit(1, 2, ws);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(b.size(), 1u);
}

TEST(IdealTest, MatchesOracleOnPaperGraph) {
  CSRGraph g = PaperGraph();
  auto store = testutil::MakeStore(g, Env::Default(), "ideal_paper");
  EdgeIteratorModel model;
  VectorSink sink;
  IdealStats stats;
  ASSERT_TRUE(RunIdeal(store.get(), model, &sink, 1, &stats).ok());
  EXPECT_EQ(sink.Sorted(), testutil::OracleTriangles(g));
  EXPECT_GT(stats.elapsed_seconds, 0.0);
}

TEST(IdealTest, VertexIteratorModelAgrees) {
  CSRGraph g = GenerateErdosRenyi(200, 2000, 77);
  auto store = testutil::MakeStore(g, Env::Default(), "ideal_vi");
  VertexIteratorModel model;
  VectorSink sink;
  ASSERT_TRUE(RunIdeal(store.get(), model, &sink, 1, nullptr).ok());
  EXPECT_EQ(sink.Sorted(), testutil::OracleTriangles(g));
}

struct OptConfig {
  const char* name;
  bool macro_overlap;
  bool morphing;
  uint32_t threads;
  bool vertex_iterator;
};

// Without this, gtest prints the raw bytes of the config, and with them the
// address of `name` and the padding, so the test names differ on every run.
void PrintTo(const OptConfig& config, std::ostream* os) { *os << config.name; }

class OptRunnerTest : public ::testing::TestWithParam<OptConfig> {};

TEST_P(OptRunnerTest, MatchesOracleOnPaperGraph) {
  const OptConfig& config = GetParam();
  CSRGraph g = PaperGraph();
  auto store = testutil::MakeStore(g, Env::Default(), "opt_paper", 64);
  EXPECT_GT(store->num_pages(), 1u);  // forces multiple iterations

  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), 2u);
  options.m_ex = 2;
  options.macro_overlap = config.macro_overlap;
  options.thread_morphing = config.morphing;
  options.num_threads = config.threads;

  EdgeIteratorModel ei;
  VertexIteratorModel vi;
  const IteratorModel* model =
      config.vertex_iterator ? static_cast<IteratorModel*>(&vi)
                             : static_cast<IteratorModel*>(&ei);
  OptRunner runner(store.get(), model, options);
  VectorSink sink;
  OptRunStats stats;
  Status s = runner.Run(&sink, &stats);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(sink.Sorted(), testutil::OracleTriangles(g));
  EXPECT_GE(stats.iterations, 1u);
}

TEST_P(OptRunnerTest, MatchesOracleOnRandomGraph) {
  const OptConfig& config = GetParam();
  CSRGraph g = GenerateErdosRenyi(400, 4000, 1234);
  auto store = testutil::MakeStore(g, Env::Default(), "opt_random");
  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), store->num_pages() / 8);
  options.m_ex = options.m_in;
  options.macro_overlap = config.macro_overlap;
  options.thread_morphing = config.morphing;
  options.num_threads = config.threads;

  EdgeIteratorModel ei;
  VertexIteratorModel vi;
  const IteratorModel* model =
      config.vertex_iterator ? static_cast<IteratorModel*>(&vi)
                             : static_cast<IteratorModel*>(&ei);
  OptRunner runner(store.get(), model, options);
  CountingSink sink;
  OptRunStats stats;
  Status s = runner.Run(&sink, &stats);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(sink.count(), testutil::OracleCount(g));
  EXPECT_GT(stats.iterations, 1u);  // buffer forces several iterations
}

INSTANTIATE_TEST_SUITE_P(
    Configs, OptRunnerTest,
    ::testing::Values(
        OptConfig{"serial_ei", false, false, 1, false},
        OptConfig{"overlap_ei", true, false, 2, false},
        OptConfig{"overlap_morph_ei", true, true, 2, false},
        OptConfig{"overlap_morph4_ei", true, true, 4, false},
        OptConfig{"serial_vi", false, false, 1, true},
        OptConfig{"overlap_vi", true, false, 2, true},
        OptConfig{"overlap_morph_vi", true, true, 2, true},
        OptConfig{"overlap_morph4_vi", true, true, 4, true}),
    [](const ::testing::TestParamInfo<OptConfig>& info) {
      return std::string(info.param.name);
    });

TEST(OptRunnerTest, SpanningAdjacencyLists) {
  // Hub vertices whose lists span multiple 256-byte pages.
  GraphBuilder b;
  for (VertexId leaf = 2; leaf < 300; ++leaf) {
    b.AddEdge(0, leaf);
    b.AddEdge(1, leaf);
  }
  b.AddEdge(0, 1);
  CSRGraph g = std::move(b).Build();
  auto store = testutil::MakeStore(g, Env::Default(), "opt_spanning");
  ASSERT_GT(store->MaxRecordPages(), 1u);

  OptOptions options;
  options.m_in = store->MaxRecordPages() + 1;
  options.m_ex = store->MaxRecordPages() + 1;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  ASSERT_TRUE(runner.Run(&sink, nullptr).ok());
  // Triangles: (0, 1, leaf) for each of the 298 leaves.
  EXPECT_EQ(sink.count(), 298u);
}

TEST(OptRunnerTest, RejectsTooSmallInternalArea) {
  GraphBuilder b;
  for (VertexId leaf = 1; leaf <= 500; ++leaf) b.AddEdge(0, leaf);
  CSRGraph g = std::move(b).Build();
  auto store = testutil::MakeStore(g, Env::Default(), "opt_smallbuf");
  OptOptions options;
  options.m_in = 1;
  options.m_ex = 1;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  EXPECT_EQ(runner.Run(&sink, nullptr).code(),
            StatusCode::kResourceExhausted);
}

TEST(OptRunnerTest, RejectsZeroBuffers) {
  CSRGraph g = PaperGraph();
  auto store = testutil::MakeStore(g, Env::Default(), "opt_zero");
  OptOptions options;
  options.m_in = 0;
  options.m_ex = 0;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  EXPECT_TRUE(runner.Run(&sink, nullptr).IsInvalidArgument());
}

TEST(OptRunnerTest, EmptyGraph) {
  CSRGraph g = GraphBuilder::FromEdges({});
  auto store = testutil::MakeStore(g, Env::Default(), "opt_empty");
  OptOptions options;
  options.m_in = 2;
  options.m_ex = 2;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  ASSERT_TRUE(runner.Run(&sink, nullptr).ok());
  EXPECT_EQ(sink.count(), 0u);
}

TEST(OptRunnerTest, TriangleFreeGraph) {
  // A path has no triangles.
  GraphBuilder b;
  for (VertexId v = 0; v + 1 < 200; ++v) b.AddEdge(v, v + 1);
  CSRGraph g = std::move(b).Build();
  auto store = testutil::MakeStore(g, Env::Default(), "opt_path");
  OptOptions options;
  options.m_in = 2;
  options.m_ex = 2;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  ASSERT_TRUE(runner.Run(&sink, nullptr).ok());
  EXPECT_EQ(sink.count(), 0u);
}

TEST(OptRunnerTest, PropagatesInjectedIoErrors) {
  CSRGraph g = GenerateErdosRenyi(300, 3000, 55);
  FaultInjectingEnv fenv(Env::Default(), testutil::FailPageReadsAfter(10));
  auto store = testutil::OpenStore(
      &fenv, testutil::CreateStore(g, Env::Default(), "opt_fault"));

  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), store->num_pages() / 10);
  options.m_ex = options.m_in;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  // Unrecoverable device faults surface as the typed Unavailable (the
  // degraded-query contract), not a raw IOError.
  EXPECT_TRUE(runner.Run(&sink, nullptr).IsUnavailable());
}

TEST(OptRunnerTest, CacheSavingsReported) {
  // With a tight buffer, the backward external-load order should make
  // some internal loads of iteration i+1 hit pages buffered at i.
  CSRGraph g = GenerateErdosRenyi(600, 9000, 99);
  auto store = testutil::MakeStore(g, Env::Default(), "opt_cache");
  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), store->num_pages() / 6);
  options.m_ex = options.m_in;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  OptRunStats stats;
  ASSERT_TRUE(runner.Run(&sink, &stats).ok());
  EXPECT_EQ(sink.count(), testutil::OracleCount(g));
  EXPECT_GT(stats.internal_cache_hits + stats.external_cache_hits, 0u);
}

TEST(OptRunnerTest, BackwardLoadOrderSavesMoreReads) {
  // Algorithm 4's backward external order must yield at least as many
  // buffer-pool savings as ascending order, with identical results.
  CSRGraph g = GenerateErdosRenyi(600, 9000, 77);
  auto store = testutil::MakeStore(g, Env::Default(), "opt_order");
  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), store->num_pages() / 6);
  options.m_ex = options.m_in;
  options.macro_overlap = false;
  options.thread_morphing = false;
  EdgeIteratorModel model;

  auto run = [&](bool backward) {
    options.backward_external_order = backward;
    OptRunner runner(store.get(), &model, options);
    CountingSink sink;
    OptRunStats stats;
    EXPECT_TRUE(runner.Run(&sink, &stats).ok());
    EXPECT_EQ(sink.count(), testutil::OracleCount(g));
    return stats.internal_cache_hits;
  };
  const uint64_t backward_hits = run(true);
  const uint64_t ascending_hits = run(false);
  EXPECT_GT(backward_hits, ascending_hits);
}

TEST(OptRunnerTest, StatsAccounting) {
  CSRGraph g = GenerateErdosRenyi(300, 3000, 42);
  auto store = testutil::MakeStore(g, Env::Default(), "opt_stats");
  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), store->num_pages() / 4);
  options.m_ex = options.m_in;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  OptRunStats stats;
  ASSERT_TRUE(runner.Run(&sink, &stats).ok());
  EXPECT_EQ(stats.per_iteration.size(), stats.iterations);
  // Internal loads cover every page at least once across iterations.
  EXPECT_GE(stats.internal_pages_read + stats.internal_cache_hits,
            store->num_pages());
  EXPECT_GT(stats.elapsed_seconds, 0.0);
  EXPECT_GE(stats.ParallelFraction(), 0.0);
  EXPECT_LE(stats.ParallelFraction(), 1.0);
}

TEST(OptRunnerTest, PhaseWallTimesAddUpToTheRunTotals) {
  // Up-to-whole: the run's serial time is exactly the per-iteration
  // phase A (load) plus phase B (plan) walls, its parallel time the
  // phase C walls, and no phase is counted outside the run's wall time.
  CSRGraph g = GenerateErdosRenyi(300, 3000, 42);
  auto store = testutil::MakeStore(g, Env::Default(), "opt_phase_walls");
  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), store->num_pages() / 4);
  options.m_ex = options.m_in;
  options.num_threads = 4;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  OptRunStats stats;
  ASSERT_TRUE(runner.Run(&sink, &stats).ok());
  ASSERT_GT(stats.iterations, 1u);
  double load_plus_plan = 0;
  double overlap = 0;
  for (const IterationStats& iter : stats.per_iteration) {
    EXPECT_GE(iter.load_seconds, 0.0);
    EXPECT_GE(iter.plan_seconds, 0.0);
    load_plus_plan += iter.load_seconds + iter.plan_seconds;
    overlap += iter.overlap_seconds;
  }
  EXPECT_NEAR(stats.serial_seconds, load_plus_plan, 1e-3);
  EXPECT_NEAR(stats.parallel_seconds, overlap, 1e-3);
  EXPECT_LE(stats.serial_seconds + stats.parallel_seconds,
            stats.elapsed_seconds + 1e-3);
}

TEST(OptRunnerTest, PhaseCCpuIsNoMoreThanTheProcessUsed) {
  // internal/external_cpu_seconds are thread CPU time, so with more
  // threads than cores (descheduled work) and frame waits they still sum
  // to no more than the CPU the whole process used over the run.
  RmatOptions rmat;
  rmat.scale = 15;
  rmat.edge_factor = 16;
  rmat.seed = 5;
  CSRGraph g = GenerateRmat(rmat);
  auto store = testutil::MakeStore(g, Env::Default(), "opt_phase_cpu");
  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), store->num_pages() / 4);
  options.m_ex = options.m_in;
  options.num_threads =
      std::min(16u, 4 * std::max(1u, std::thread::hardware_concurrency()));
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  OptRunStats stats;
  const auto process_cpu = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
  };
  const double before = process_cpu();
  ASSERT_TRUE(runner.Run(&sink, &stats).ok());
  const double used = process_cpu() - before;
  ASSERT_GT(stats.iterations, 1u);
  double phase_c = 0;
  for (const IterationStats& iter : stats.per_iteration) {
    phase_c += iter.internal_cpu_seconds + iter.external_cpu_seconds;
  }
  EXPECT_GT(phase_c, 0.0);
  // getrusage truncates user and system time to microseconds each.
  EXPECT_LE(phase_c, used + 2e-6);
}

TEST(OptRunnerTest, MinimalExternalAreaStressesChaining) {
  // m_ex = 1 forces every external chunk through the L_later chain one
  // page at a time (maximum Algorithm 9 pressure).
  CSRGraph g = GenerateErdosRenyi(300, 3000, 13);
  auto store = testutil::MakeStore(g, Env::Default(), "opt_mex1");
  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), store->num_pages() / 8);
  options.m_ex = 1;
  options.num_threads = 2;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  ASSERT_TRUE(runner.Run(&sink, nullptr).ok());
  EXPECT_EQ(sink.count(), testutil::OracleCount(g));
}

TEST(OptRunnerTest, StarGraphHeavyCandidates) {
  // A star: hub connected to everyone, no triangles, but the hub's
  // record floods the candidate sets.
  GraphBuilder b;
  for (VertexId leaf = 1; leaf <= 600; ++leaf) b.AddEdge(0, leaf);
  CSRGraph g = std::move(b).Build();
  auto store = testutil::MakeStore(g, Env::Default(), "opt_star");
  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), 2u);
  options.m_ex = 2;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  ASSERT_TRUE(runner.Run(&sink, nullptr).ok());
  EXPECT_EQ(sink.count(), 0u);
}

TEST(OptRunnerTest, IsolatedVerticesOnly) {
  // Vertices 0..9 exist because vertex 10-11 share the only edge.
  CSRGraph g = GraphBuilder::FromEdges({{10, 11}});
  auto store = testutil::MakeStore(g, Env::Default(), "opt_isolated");
  OptOptions options;
  options.m_in = 2;
  options.m_ex = 2;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  ASSERT_TRUE(runner.Run(&sink, nullptr).ok());
  EXPECT_EQ(sink.count(), 0u);
}

TEST(OptRunnerTest, VertexIteratorWithTinyExternalArea) {
  CSRGraph g = GenerateErdosRenyi(250, 2200, 19);
  auto store = testutil::MakeStore(g, Env::Default(), "opt_vi_mex1");
  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), store->num_pages() / 6);
  options.m_ex = 1;
  options.num_threads = 3;
  VertexIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  ASSERT_TRUE(runner.Run(&sink, nullptr).ok());
  EXPECT_EQ(sink.count(), testutil::OracleCount(g));
}

TEST(OptRunnerTest, ThrottledEnvOverlapBeatsSyncAtDepth) {
  // With injected latency, OPT_serial at queue depth 8 must finish the
  // same work in less time than at depth 1 — the micro-level overlap.
  // The run issues ~280 read commands: at 2 ms each the injected latency
  // dwarfs the run's CPU time even under a sanitizer's slowdown, so the
  // comparison measures the overlap and not the instrumentation.
  ThrottledEnv env(Env::Default(), 2000);
  CSRGraph g = GenerateErdosRenyi(600, 9000, 23);
  auto store = testutil::MakeStore(g, &env, "opt_throttle");
  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), store->num_pages() / 8);
  options.m_ex = options.m_in;
  options.macro_overlap = false;
  options.thread_morphing = false;
  EdgeIteratorModel model;

  auto run_with_depth = [&](uint32_t depth) {
    options.io_queue_depth = depth;
    OptRunner runner(store.get(), &model, options);
    CountingSink sink;
    Stopwatch watch;
    EXPECT_TRUE(runner.Run(&sink, nullptr).ok());
    EXPECT_EQ(sink.count(), testutil::OracleCount(g));
    return watch.ElapsedSeconds();
  };
  const double slow = run_with_depth(1);
  const double fast = run_with_depth(8);
  EXPECT_LT(fast, slow);  // deep queue hides injected latency
}

}  // namespace
}  // namespace opt
