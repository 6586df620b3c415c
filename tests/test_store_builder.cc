// Tests for the out-of-core pipeline: external sorter and the
// edge-list-to-store builder, cross-checked against the in-memory path.
#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "baselines/inmemory.h"
#include "core/iterator_model.h"
#include "core/opt_runner.h"
#include "core/triangle_sink.h"
#include "gen/rmat.h"
#include "graph/builder.h"
#include "graph/reorder.h"
#include "storage/external_sort.h"
#include "storage/record_scanner.h"
#include "storage/store_builder.h"
#include "test_helpers.h"
#include "util/random.h"

namespace opt {
namespace {

struct U64Record {
  uint64_t value;
  bool operator<(const U64Record& o) const { return value < o.value; }
};

TEST(ExternalSorterTest, InMemoryOnlyPath) {
  ExternalSorter<U64Record> sorter(Env::Default(), testutil::ProcessTempDir(),
                                   "sorter_mem", 1 << 20);
  for (uint64_t v : {5ull, 1ull, 9ull, 3ull}) {
    ASSERT_TRUE(sorter.Add({v}).ok());
  }
  EXPECT_EQ(sorter.num_runs(), 0u);  // fits in memory
  std::vector<uint64_t> out;
  ASSERT_TRUE(sorter
                  .Merge([&](const U64Record& r) {
                    out.push_back(r.value);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(out, (std::vector<uint64_t>{1, 3, 5, 9}));
}

TEST(ExternalSorterTest, SpillsAndMergesManyRuns) {
  // A budget of 64 bytes = 8 records per run forces many spills.
  ExternalSorter<U64Record> sorter(Env::Default(), testutil::ProcessTempDir(),
                                   "sorter_spill", 64);
  Random64 rng(7);
  std::vector<uint64_t> expected;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng.Next() % 100000;
    expected.push_back(v);
    ASSERT_TRUE(sorter.Add({v}).ok());
  }
  EXPECT_GT(sorter.num_runs(), 100u);
  std::sort(expected.begin(), expected.end());
  std::vector<uint64_t> out;
  out.reserve(expected.size());
  ASSERT_TRUE(sorter
                  .Merge([&](const U64Record& r) {
                    out.push_back(r.value);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(out, expected);
}

TEST(ExternalSorterTest, EmptyInput) {
  ExternalSorter<U64Record> sorter(Env::Default(), testutil::ProcessTempDir(),
                                   "sorter_empty", 1024);
  int calls = 0;
  ASSERT_TRUE(sorter
                  .Merge([&](const U64Record&) {
                    ++calls;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(calls, 0);
}

TEST(ExternalSorterTest, ConsumerErrorPropagates) {
  ExternalSorter<U64Record> sorter(Env::Default(), testutil::ProcessTempDir(),
                                   "sorter_err", 1024);
  ASSERT_TRUE(sorter.Add({1}).ok());
  Status s = sorter.Merge(
      [](const U64Record&) { return Status::Aborted("stop"); });
  EXPECT_EQ(s.code(), StatusCode::kAborted);
}

class StoreBuilderTest : public ::testing::Test {
 protected:
  std::string WriteEdgeFile(const std::vector<std::string>& lines,
                            const char* name) {
    const std::string path = testutil::ProcessTempDir() + "/" + name;
    std::FILE* f = std::fopen(path.c_str(), "wb");
    for (const auto& line : lines) {
      std::fputs(line.c_str(), f);
      std::fputc('\n', f);
    }
    std::fclose(f);
    return path;
  }
};

TEST_F(StoreBuilderTest, MatchesInMemoryPath) {
  // Random edges -> text file -> out-of-core builder, compared with the
  // in-memory GraphBuilder + GraphStore::Create path.
  RmatOptions gen;
  gen.scale = 9;
  gen.edge_factor = 6;
  gen.seed = 77;
  CSRGraph reference_raw = GenerateRmat(gen);
  std::vector<std::string> lines = {"# header comment"};
  for (VertexId u = 0; u < reference_raw.num_vertices(); ++u) {
    for (VertexId v : reference_raw.Successors(u)) {
      lines.push_back(std::to_string(u) + " " + std::to_string(v));
    }
  }
  const std::string edge_path = WriteEdgeFile(lines, "builder_edges.txt");

  StoreBuildOptions options;
  options.page_size = 256;
  options.degree_order = true;
  options.memory_budget_bytes = 1 << 12;  // force spills
  options.temp_dir = testutil::ProcessTempDir();
  const std::string base = testutil::ProcessTempDir() + "/builder_store";
  auto stats =
      BuildStoreFromEdgeList(Env::Default(), edge_path, base, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->kept_edges, reference_raw.num_edges());
  EXPECT_GT(stats->sort_runs, 0u);

  // Reference: in-memory degree order (same stable tie-break).
  CSRGraph reference = DegreeOrder(reference_raw).graph;
  auto store = GraphStore::Open(Env::Default(), base);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->num_vertices(), reference.num_vertices());
  EXPECT_EQ((*store)->num_directed_edges(),
            reference.num_directed_edges());
  // Adjacency lists identical record by record.
  ASSERT_TRUE(ScanRecords(**store, 0, (*store)->num_pages() - 1,
                          [&](VertexId v, const AdjacencyRef& adj) {
                            auto expected = reference.Neighbors(v);
                            EXPECT_TRUE(std::equal(
                                expected.begin(), expected.end(),
                                adj.all.begin(), adj.all.end()))
                                << "vertex " << v;
                          })
                  .ok());
  // And the triangulation agrees with the oracle.
  OptOptions opt_options;
  opt_options.m_in =
      std::max((*store)->MaxRecordPages(), (*store)->num_pages() / 5);
  opt_options.m_ex = opt_options.m_in;
  EdgeIteratorModel model;
  OptRunner runner(store->get(), &model, opt_options);
  CountingSink sink;
  ASSERT_TRUE(runner.Run(&sink, nullptr).ok());
  EXPECT_EQ(sink.count(), testutil::OracleCount(reference_raw));
}

TEST_F(StoreBuilderTest, DedupAndSelfLoops) {
  const std::string path = WriteEdgeFile(
      {"0 1", "1 0", "0 1", "2 2", "1 2", "# comment", "0 2"},
      "builder_dedup.txt");
  StoreBuildOptions options;
  options.page_size = 256;
  options.degree_order = false;
  options.temp_dir = testutil::ProcessTempDir();
  const std::string base = testutil::ProcessTempDir() + "/builder_dedup_store";
  auto stats = BuildStoreFromEdgeList(Env::Default(), path, base, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->input_edges, 6u);
  EXPECT_EQ(stats->self_loops, 1u);
  EXPECT_EQ(stats->kept_edges, 3u);  // triangle 0-1-2
  auto store = GraphStore::Open(Env::Default(), base);
  ASSERT_TRUE(store.ok());
  CountingSink sink;
  EdgeIteratorModel model;
  OptOptions opt_options;
  opt_options.m_in = 2;
  opt_options.m_ex = 2;
  OptRunner runner(store->get(), &model, opt_options);
  ASSERT_TRUE(runner.Run(&sink, nullptr).ok());
  EXPECT_EQ(sink.count(), 1u);
}

TEST_F(StoreBuilderTest, EmptyInputProducesEmptyStore) {
  const std::string path = WriteEdgeFile({"# nothing"}, "builder_empty.txt");
  StoreBuildOptions options;
  options.temp_dir = testutil::ProcessTempDir();
  const std::string base = testutil::ProcessTempDir() + "/builder_empty_store";
  auto stats = BuildStoreFromEdgeList(Env::Default(), path, base, options);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->kept_edges, 0u);
  auto store = GraphStore::Open(Env::Default(), base);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->num_vertices(), 0u);
}

TEST_F(StoreBuilderTest, RejectsMalformedLine) {
  const std::string path =
      WriteEdgeFile({"0 1", "broken line"}, "builder_bad.txt");
  StoreBuildOptions options;
  options.temp_dir = testutil::ProcessTempDir();
  auto stats = BuildStoreFromEdgeList(
      Env::Default(), path, testutil::ProcessTempDir() + "/builder_bad_store",
      options);
  EXPECT_TRUE(stats.status().IsCorruption());
}

}  // namespace
}  // namespace opt
