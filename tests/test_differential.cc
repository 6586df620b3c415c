// Differential tests for the whole triangulation stack: OPT's count and
// sorted triangle listing must equal the in-memory baseline on seeded
// R-MAT / Erdős–Rényi / Holme–Kim graphs across the full configuration
// matrix of {m_in/m_ex splits, thread counts, thread morphing,
// backward external order}, counting and listing. Fault-injection
// variants re-run OPT end-to-end with randomized read-fault offsets and
// with seeded FaultPlans, asserting each run either surfaces the typed
// Unavailable or produces the exact result — never a silently wrong
// count. Failing fault trials print a one-line `--fault-plan` repro.
// The count-only path (a CountingSink) must match the Emit path's total
// and intersect counters.
// A kernel-isolation test checks that a run neither installs nor clears
// the caller's intersection kernel. The candidate-planning
// test recomputes each iteration's external candidates and page runs
// from the CSR graph; the page-run test checks that runs of missing
// pages reach the device as one read each.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/iterator_model.h"
#include "core/listing_reader.h"
#include "core/opt_runner.h"
#include "core/triangle_sink.h"
#include "gen/erdos_renyi.h"
#include "gen/holme_kim.h"
#include "gen/rmat.h"
#include "graph/intersect.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "test_helpers.h"
#include "util/random.h"

namespace opt {
namespace {

CSRGraph MakeRmat(uint64_t seed) {
  RmatOptions options;
  options.scale = 8;
  options.edge_factor = 6;
  options.seed = seed;
  return GenerateRmat(options);
}

CSRGraph MakeHolmeKim(uint64_t seed) {
  HolmeKimOptions options;
  options.num_vertices = 350;
  options.edges_per_vertex = 4;
  options.triad_probability = 0.6;
  options.seed = seed;
  return GenerateHolmeKim(options);
}

struct Split {
  const char* name;
  uint32_t m_in;
  uint32_t m_ex;
};

/// An even paper-default split and a skewed minimal-internal split.
std::vector<Split> MakeSplits(const GraphStore& store) {
  const uint32_t even =
      std::max(store.MaxRecordPages() * 2, store.num_pages() / 5);
  return {{"even", even, even},
          {"skewed", std::max(store.MaxRecordPages(), 2u),
           std::max(2u, store.num_pages() / 3)}};
}

std::string ConfigLabel(const Split& split, uint32_t threads, bool morph,
                        bool backward) {
  return std::string("split=") + split.name +
         " threads=" + std::to_string(threads) +
         " morph=" + (morph ? "on" : "off") +
         " backward=" + (backward ? "on" : "off");
}

OptOptions MakeOptions(const Split& split, uint32_t threads, bool morph,
                       bool backward) {
  OptOptions options;
  options.m_in = split.m_in;
  options.m_ex = split.m_ex;
  options.num_threads = threads;
  options.macro_overlap = threads > 1;  // threads=1 maps to OPT_serial
  options.thread_morphing = morph;
  options.backward_external_order = backward;
  return options;
}

class DifferentialTest : public ::testing::Test {
 protected:
  void TearDown() override {
    // Runs install no intersection scope: nothing may stay installed on
    // the calling thread once Run() returns.
    EXPECT_EQ(ActiveIntersectKernel(), BestIntersectKernel());
  }
};

TEST_F(DifferentialTest, RmatFullConfigMatrixMatchesInMemoryBaseline) {
  // The skewed R-MAT store, where a hub's loaded list is probed by many
  // requesters. LIST runs at 1, 4 and 8 threads must write exactly the
  // oracle, like the counted runs.
  CSRGraph g = MakeRmat(42);
  const auto oracle = testutil::OracleTriangles(g);
  ASSERT_GT(oracle.size(), 0u);
  auto store = testutil::MakeStore(g, Env::Default(), "diff_rmat", 256);
  const std::string path = testutil::ProcessTempDir() + "/diff_rmat_out.bin";
  EdgeIteratorModel model;
  for (const Split& split : MakeSplits(*store)) {
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
      for (bool morph : {false, true}) {
        for (bool backward : {false, true}) {
          const std::string label =
              ConfigLabel(split, threads, morph, backward);
          SCOPED_TRACE(label);
          OptRunner runner(store.get(), &model,
                           MakeOptions(split, threads, morph, backward));
          VectorSink sink;
          Status s = runner.Run(&sink, nullptr);
          ASSERT_TRUE(s.ok()) << s.ToString();
          ASSERT_EQ(sink.Sorted(), oracle);
          if (threads == 2) continue;
          SCOPED_TRACE("list");
          {
            ListingSink listing(Env::Default(), path);
            s = runner.Run(&listing, nullptr);
            ASSERT_TRUE(s.ok()) << s.ToString();
          }
          auto listed = ReadListingTriangles(Env::Default(), path);
          ASSERT_TRUE(listed.ok()) << listed.status().ToString();
          ASSERT_EQ(*listed, oracle);
        }
      }
    }
  }
  std::remove(path.c_str());
}

TEST_F(DifferentialTest, ErdosRenyiTrimmedMatrixMatchesInMemoryBaseline) {
  CSRGraph g = GenerateErdosRenyi(400, 1600, 7);
  const auto oracle = testutil::OracleTriangles(g);
  auto store = testutil::MakeStore(g, Env::Default(), "diff_er", 256);
  EdgeIteratorModel model;
  const auto splits = MakeSplits(*store);
  // Trimmed matrix: both splits, extreme thread counts; morph and
  // backward toggled together (the full cross runs on R-MAT above).
  for (const Split& split : splits) {
    for (uint32_t threads : {1u, 4u}) {
      for (bool toggles : {false, true}) {
        const std::string label =
            ConfigLabel(split, threads, toggles, toggles);
        SCOPED_TRACE(label);
        OptRunner runner(store.get(), &model,
                         MakeOptions(split, threads, toggles, toggles));
        VectorSink sink;
        Status s = runner.Run(&sink, nullptr);
        ASSERT_TRUE(s.ok()) << s.ToString();
        ASSERT_EQ(sink.Sorted(), oracle);
      }
    }
  }
}

TEST_F(DifferentialTest, HolmeKimTrimmedMatrixMatchesInMemoryBaseline) {
  CSRGraph g = MakeHolmeKim(9);
  const auto oracle = testutil::OracleTriangles(g);
  ASSERT_GT(oracle.size(), 0u);  // triad closure guarantees triangles
  auto store = testutil::MakeStore(g, Env::Default(), "diff_hk", 256);
  EdgeIteratorModel model;
  for (const Split& split : MakeSplits(*store)) {
    for (uint32_t threads : {1u, 2u}) {
      const std::string label = ConfigLabel(split, threads, true, true);
      SCOPED_TRACE(label);
      OptRunner runner(store.get(), &model,
                       MakeOptions(split, threads, true, true));
      VectorSink sink;
      Status s = runner.Run(&sink, nullptr);
      ASSERT_TRUE(s.ok()) << s.ToString();
      ASSERT_EQ(sink.Sorted(), oracle);
    }
  }
}

TEST_F(DifferentialTest, ParallelListingMatchesOracleAcrossIterations) {
  // LIST, not just COUNT: four threads with macro overlap and morphing
  // emit through the listing sink concurrently, over a 25% buffer so the
  // run takes several iterations; the file must hold exactly the oracle.
  CSRGraph g = MakeRmat(42);
  const auto oracle = testutil::OracleTriangles(g);
  ASSERT_GT(oracle.size(), 0u);
  auto store = testutil::MakeStore(g, Env::Default(), "diff_list", 256);
  const uint32_t half =
      std::max(store->MaxRecordPages(), store->num_pages() / 8);
  const Split quarter{"quarter", half, half};
  EdgeIteratorModel model;
  for (bool asynchronous : {true, false}) {
    SCOPED_TRACE(asynchronous ? "async" : "sync");
    const std::string path =
        testutil::ProcessTempDir() + "/diff_list_out.bin";
    OptRunStats stats;
    {
      OptRunner runner(store.get(), &model,
                       MakeOptions(quarter, 4, true, true));
      ListingSink sink(Env::Default(), path, /*flush_threshold=*/512,
                       asynchronous);
      Status s = runner.Run(&sink, &stats);
      ASSERT_TRUE(s.ok()) << s.ToString();
      ASSERT_TRUE(sink.Finish().ok());
      EXPECT_EQ(sink.triangles_written(), oracle.size());
    }
    EXPECT_GT(stats.iterations, 1u);
    auto listed = ReadListingTriangles(Env::Default(), path);
    ASSERT_TRUE(listed.ok()) << listed.status().ToString();
    EXPECT_EQ(*listed, oracle);
    std::remove(path.c_str());
  }
}

TEST_F(DifferentialTest, VertexIteratorModelMatchesInMemoryBaseline) {
  // The vertex-iterator instantiation marks the other side of each pair
  // (the loaded n_succ(u) of Algorithm 13) and must find the same sets.
  CSRGraph g = MakeRmat(11);
  const auto oracle = testutil::OracleTriangles(g);
  auto store = testutil::MakeStore(g, Env::Default(), "diff_vi", 256);
  VertexIteratorModel model;
  for (const Split& split : MakeSplits(*store)) {
    for (uint32_t threads : {1u, 3u}) {
      SCOPED_TRACE(ConfigLabel(split, threads, true, true));
      OptRunner runner(store.get(), &model,
                       MakeOptions(split, threads, true, true));
      VectorSink sink;
      Status s = runner.Run(&sink, nullptr);
      ASSERT_TRUE(s.ok()) << s.ToString();
      ASSERT_EQ(sink.Sorted(), oracle);
    }
  }
}

TEST_F(DifferentialTest, CountOnlyPathMatchesEmitPath) {
  // A CountingSink declares counts_only(), so both models count their
  // sets instead of building them; a TeeSink around another
  // CountingSink does not, so the same run goes through Emit. On the
  // skewed R-MAT store both totals must equal the oracle, and the two
  // paths must report the same intersect calls and elements.
  CSRGraph g = MakeRmat(42);
  const uint64_t oracle = testutil::OracleTriangles(g).size();
  ASSERT_GT(oracle, 0u);
  auto store = testutil::MakeStore(g, Env::Default(), "diff_count", 256);
  const EdgeIteratorModel edge;
  const VertexIteratorModel vertex;
  for (const IteratorModel* model :
       std::initializer_list<const IteratorModel*>{&edge, &vertex}) {
    for (const Split& split : MakeSplits(*store)) {
      for (uint32_t threads : {1u, 4u, 8u}) {
        SCOPED_TRACE(std::string(model->name()) + " " +
                     ConfigLabel(split, threads, true, false));
        OptRunner runner(store.get(), model,
                         MakeOptions(split, threads, true, false));
        CountingSink counting;
        ASSERT_TRUE(counting.counts_only());
        OptRunStats count_stats;
        Status s = runner.Run(&counting, &count_stats);
        ASSERT_TRUE(s.ok()) << s.ToString();
        EXPECT_EQ(counting.count(), oracle);

        CountingSink inner;
        TeeSink emitting({&inner});
        ASSERT_FALSE(emitting.counts_only());
        OptRunStats emit_stats;
        s = runner.Run(&emitting, &emit_stats);
        ASSERT_TRUE(s.ok()) << s.ToString();
        EXPECT_EQ(inner.count(), oracle);

        EXPECT_GT(count_stats.intersect.TotalCalls(), 0u);
        EXPECT_EQ(count_stats.intersect.TotalCalls(),
                  emit_stats.intersect.TotalCalls());
        EXPECT_EQ(count_stats.intersect.TotalElements(),
                  emit_stats.intersect.TotalElements());
      }
    }
  }
}

/// Phase B's plan for one iteration over [v_lo, v_hi], recomputed from
/// the CSR graph and the store's page directory: the external candidate
/// set of the model, and how many disjoint page runs its records cover
/// (records sharing a page belong to one run).
struct ExpectedPlan {
  uint64_t candidates = 0;
  uint64_t chunks = 0;
};

ExpectedPlan PlanFromGraph(const CSRGraph& g, const GraphStore& store,
                           bool edge_iterator, VertexId v_lo, VertexId v_hi) {
  std::set<VertexId> candidates;
  for (VertexId u = v_lo; u <= v_hi; ++u) {
    for (VertexId w : g.Neighbors(u)) {
      // Edge iterator: successors beyond the internal range. Vertex
      // iterator: predecessors before it.
      if (edge_iterator ? w > v_hi : w < v_lo) candidates.insert(w);
    }
  }
  std::vector<std::pair<uint32_t, uint32_t>> runs;
  for (VertexId v : candidates) {
    runs.emplace_back(store.FirstPageOfVertex(v), store.LastPageOfVertex(v));
  }
  std::sort(runs.begin(), runs.end());
  ExpectedPlan plan;
  plan.candidates = candidates.size();
  uint32_t last_page = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    if (i == 0 || runs[i].first > last_page) {
      ++plan.chunks;
      last_page = runs[i].second;
    } else {
      last_page = std::max(last_page, runs[i].second);
    }
  }
  return plan;
}

TEST_F(DifferentialTest, CandidatePlanningMatchesTheGraph) {
  // Every iteration's candidate count and chunk count must match what
  // the graph implies, for both iterator models, on a store whose hub
  // records span pages and with a buffer small enough for several
  // iterations.
  CSRGraph g = MakeRmat(7);
  const uint64_t oracle = testutil::OracleCount(g);
  auto store = testutil::MakeStore(g, Env::Default(), "diff_plan", 256);
  ASSERT_GE(store->MaxRecordPages(), 2u);
  const uint32_t m_in =
      std::max(store->MaxRecordPages(), store->num_pages() / 6);
  const Split small{"small", m_in, m_in};
  EdgeIteratorModel edge_model;
  VertexIteratorModel vertex_model;
  for (const IteratorModel* model :
       {static_cast<const IteratorModel*>(&edge_model),
        static_cast<const IteratorModel*>(&vertex_model)}) {
    const bool edge_iterator = model == &edge_model;
    for (uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(model->name()) +
                   " threads=" + std::to_string(threads));
      OptRunner runner(store.get(), model,
                       MakeOptions(small, threads, true, true));
      CountingSink sink;
      OptRunStats stats;
      Status s = runner.Run(&sink, &stats);
      ASSERT_TRUE(s.ok()) << s.ToString();
      EXPECT_EQ(sink.count(), oracle);
      ASSERT_GE(stats.iterations, 3u);
      uint64_t planned = 0;
      for (const IterationStats& iter : stats.per_iteration) {
        SCOPED_TRACE("v_lo=" + std::to_string(iter.v_lo));
        const ExpectedPlan want =
            PlanFromGraph(g, *store, edge_iterator, iter.v_lo, iter.v_hi);
        EXPECT_EQ(iter.candidates, want.candidates);
        EXPECT_EQ(iter.chunks, want.chunks);
        planned += iter.candidates;
      }
      EXPECT_GT(planned, 0u);
    }
  }
}

TEST_F(DifferentialTest, PageRunsReadEveryPageInFewerDeviceReads) {
  // Deterministic configuration (OPT_serial, one I/O worker) on a store
  // whose hub records span pages: each run of consecutive missing pages
  // is one device read. The count stays exact, the device sees fewer
  // reads than pages, and it reads exactly the pages the run accounts.
  CSRGraph g = MakeRmat(7);
  const uint64_t oracle = testutil::OracleCount(g);
  ThrottledEnv env(Env::Default(), 0);
  auto store = testutil::MakeStore(g, &env, "diff_runs", 256);
  ASSERT_GE(store->MaxRecordPages(), 2u);
  const uint32_t m_in =
      std::max(store->MaxRecordPages(), store->num_pages() / 6);
  OptOptions options = MakeOptions({"small", m_in, m_in}, /*threads=*/1,
                                   /*morph=*/false, /*backward=*/true);
  options.io_queue_depth = 1;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  OptRunStats stats;
  env.stats().Reset();
  const Status s = runner.Run(&sink, &stats);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(sink.count(), oracle);
  ASSERT_GE(stats.iterations, 3u);
  const uint64_t pages = stats.internal_pages_read + stats.external_pages_read;
  EXPECT_LT(env.stats().reads.load(), pages);
  EXPECT_EQ(env.stats().read_bytes.load(), pages * store->page_size());
}

TEST_F(DifferentialTest, RandomizedFaultOffsetsNeverYieldWrongCounts) {
  // End-to-end fault injection: arm a read failure at a random offset
  // for each trial while also varying threads and morphing.
  // Every run must either complete with the exact count (the fault
  // landed past the last read) or fail with the typed Unavailable.
  CSRGraph g = MakeRmat(5);
  const std::string base =
      testutil::CreateStore(g, Env::Default(), "diff_fault", 256);
  const uint64_t oracle = testutil::OracleCount(g);
  EdgeIteratorModel model;
  const auto splits = MakeSplits(*testutil::OpenStore(Env::Default(), base));

  Random64 rng(0xFA17);
  int completed = 0;
  int faulted = 0;
  for (int trial = 0; trial < 28; ++trial) {
    const uint32_t threads = 1 + static_cast<uint32_t>(rng.Uniform(4));
    const bool morph = rng.Uniform(2) == 0;
    const Split& split = splits[rng.Uniform(splits.size())];
    // Offsets span "fails immediately" through "fails after the run".
    const int64_t offset = static_cast<int64_t>(rng.Uniform(3000));
    SCOPED_TRACE(ConfigLabel(split, threads, morph, true) +
                 " fail_after=" + std::to_string(offset));
    // A fresh env per trial: its read ops count from zero.
    FaultInjectingEnv fenv(Env::Default(),
                           testutil::FailPageReadsAfter(offset));
    auto store = testutil::OpenStore(&fenv, base);
    OptRunner runner(store.get(), &model,
                     MakeOptions(split, threads, morph, true));
    CountingSink sink;
    Status s = runner.Run(&sink, nullptr);
    if (s.ok()) {
      ASSERT_EQ(sink.count(), oracle);
      ++completed;
    } else {
      ASSERT_TRUE(s.IsUnavailable()) << s.ToString();
      ++faulted;
    }
  }
  // The offset range is tuned so the sweep exercises both outcomes.
  EXPECT_GT(completed, 0);
  EXPECT_GT(faulted, 0);
}

TEST_F(DifferentialTest, SeededFaultPlansNeverYieldWrongCounts) {
  // FaultPlan-driven differential fuzzing: every trial runs under a
  // distinct deterministic plan mixing transient errors, torn reads,
  // and latency spikes. Transient plans must heal through the I/O
  // retry path and still produce the exact count; persistent plans must
  // surface a typed error — Unavailable for device faults, Corruption
  // for torn pages the reread budget cannot heal — never a wrong
  // count. Any failure prints the one-line
  // fault-plan spec — rerun it against the server with
  //   opt_server --fault-plan "<spec>" --graph g=/path
  // or feed it to FaultPlan::Parse in a unit test to reproduce.
  CSRGraph g = MakeRmat(6);
  const uint64_t oracle = testutil::OracleCount(g);
  EdgeIteratorModel model;

  Random64 rng(0x9E1A);
  int healed = 0;
  int degraded = 0;
  for (int trial = 0; trial < 12; ++trial) {
    FaultPlan plan;
    plan.seed = 0xBEEF0000 + static_cast<uint64_t>(trial);
    plan.read_error_p = 0.05 + 0.05 * static_cast<double>(rng.Uniform(4));
    plan.transient = rng.Uniform(4) == 0 ? 0 : 1 + rng.Uniform(2);
    plan.torn_read_p = rng.Uniform(2) == 0 ? 0.02 : 0.0;
    plan.latency_p = rng.Uniform(2) == 0 ? 0.05 : 0.0;
    plan.latency_us = 200;
    plan.path_filter = ".pages";
    SCOPED_TRACE("repro: --fault-plan \"" + plan.ToString() + "\"");

    FaultInjectingEnv fenv(Env::Default(), plan);
    fenv.set_enabled(false);  // build the store fault-free
    auto store = testutil::MakeStore(
        g, &fenv, "diff_plan_" + std::to_string(trial), 256);
    fenv.set_enabled(true);

    OptOptions options = MakeOptions(MakeSplits(*store)[0],
                                     1 + rng.Uniform(3), true, true);
    options.io_retry.backoff_base_micros = 20;  // keep trials brisk
    // A location can fault on the error stream AND the torn stream; the
    // budget must cover both transient runs plus the clean attempt.
    options.io_retry.max_attempts = 2 * plan.transient + 1;
    OptRunner runner(store.get(), &model, options);
    CountingSink sink;
    Status s = runner.Run(&sink, nullptr);
    if (s.ok()) {
      ASSERT_EQ(sink.count(), oracle)
          << "wrong count under --fault-plan \"" << plan.ToString() << "\"";
      ++healed;
    } else {
      // Persistent device errors degrade to the typed Unavailable. A
      // persistent torn read is indistinguishable from on-disk damage
      // once the reread budget is spent, so it surfaces as Corruption
      // (retrying a damaged store forever helps nobody).
      const bool can_corrupt = plan.transient == 0 && plan.torn_read_p > 0;
      ASSERT_TRUE(s.IsUnavailable() || (can_corrupt && s.IsCorruption()))
          << s.ToString();
      ++degraded;
    }
    // Transient plans whose faults all healed within the retry budget
    // must end with the exact count — a transient fault is not license
    // for a wrong answer.
    if (plan.transient != 0 && plan.transient <= 2 &&
        options.io_retry.max_attempts > plan.transient) {
      EXPECT_TRUE(s.ok()) << "transient plan should have healed: "
                          << s.ToString();
    }
  }
  EXPECT_GT(healed, 0);
}

TEST(KernelIsolationTest, RunLeavesNoKernelBehindOnItsThread) {
  // A run selects no intersection kernel: it neither installs one nor
  // clears the caller's. Under a caller's scalar scope the count is
  // exact, and afterwards plain intersections on the same thread still
  // run the caller's kernel.
  CSRGraph g = MakeRmat(5);
  auto store = testutil::MakeStore(g, Env::Default(), "kernel_leak", 256);
  EdgeIteratorModel model;
  IntersectScope caller_scope(IntersectKernel::kScalar);
  OptRunner runner(store.get(), &model,
                   MakeOptions(MakeSplits(*store)[0], 1, false, true));
  CountingSink sink;
  const Status s = runner.Run(&sink, nullptr);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(sink.count(), testutil::OracleTriangles(g).size());

  const std::vector<VertexId> a{1, 2, 3, 5, 8, 13};
  const std::vector<VertexId> b{2, 3, 4, 5, 6, 7};
  const IntersectCounters before = SnapshotIntersectCounters();
  EXPECT_EQ(IntersectCount(a, b), 3u);
  const IntersectCounters delta =
      IntersectCounters::Delta(SnapshotIntersectCounters(), before);
  EXPECT_EQ(delta.calls[static_cast<int>(IntersectKernel::kScalar)], 1u);
  EXPECT_EQ(delta.TotalCalls(), 1u);
}

}  // namespace
}  // namespace opt
