// Unit tests for the graph substrate: builder, CSR, reorder, stats,
// intersection kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "graph/builder.h"
#include "graph/csr_graph.h"
#include "graph/intersect.h"
#include "graph/reorder.h"
#include "graph/stats.h"
#include "test_helpers.h"
#include "util/random.h"

namespace opt {
namespace {

CSRGraph PaperGraph() {
  // Figure 1: a-b, a-c, b-c, c-d, c-f, c-g, c-h, d-e, d-f, e-f, f-g, g-h
  // with a=0..h=7. Triangles: abc, cdf, def, cfg, cgh (5 total).
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

TEST(GraphBuilderTest, BuildsSimpleGraph) {
  CSRGraph g = PaperGraph();
  EXPECT_EQ(g.num_vertices(), 8u);
  EXPECT_EQ(g.num_edges(), 12u);
  EXPECT_EQ(g.degree(2), 6u);  // c touches a,b,d,f,g,h
}

TEST(GraphBuilderTest, DropsSelfLoopsAndDuplicates) {
  GraphBuilder b;
  b.AddEdge(1, 1);  // self loop
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);  // duplicate, reversed
  b.AddEdge(0, 1);  // duplicate
  CSRGraph g = std::move(b).Build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(GraphBuilderTest, EmptyGraph) {
  CSRGraph g = GraphBuilder::FromEdges({});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphBuilderTest, IsolatedVerticesGetEmptyLists) {
  CSRGraph g = GraphBuilder::FromEdges({{0, 5}});
  EXPECT_EQ(g.num_vertices(), 6u);
  for (VertexId v = 1; v < 5; ++v) EXPECT_EQ(g.degree(v), 0u);
}

TEST(GraphBuilderTest, AdjacencySorted) {
  CSRGraph g = GraphBuilder::FromEdges({{3, 1}, {3, 9}, {3, 4}, {3, 0}});
  auto nbrs = g.Neighbors(3);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 4u);
}

TEST(CSRGraphTest, SuccessorsAndPredecessors) {
  CSRGraph g = PaperGraph();
  auto succ = g.Successors(2);
  EXPECT_EQ(std::vector<VertexId>(succ.begin(), succ.end()),
            (std::vector<VertexId>{3, 5, 6, 7}));
  auto prec = g.Predecessors(2);
  EXPECT_EQ(std::vector<VertexId>(prec.begin(), prec.end()),
            (std::vector<VertexId>{0, 1}));
}

TEST(CSRGraphTest, HasEdge) {
  CSRGraph g = PaperGraph();
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 7));
  EXPECT_FALSE(g.HasEdge(0, 100));  // out of range
}

TEST(CSRGraphTest, SaveLoadRoundtrip) {
  CSRGraph g = PaperGraph();
  const std::string path = testutil::ProcessTempDir() + "/graph_roundtrip.bin";
  ASSERT_TRUE(g.Save(path).ok());
  auto loaded = CSRGraph::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_vertices(), g.num_vertices());
  EXPECT_EQ(loaded->num_edges(), g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto a = g.Neighbors(v);
    auto b = loaded->Neighbors(v);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
  std::remove(path.c_str());
}

TEST(CSRGraphTest, LoadRejectsGarbage) {
  const std::string path = testutil::ProcessTempDir() + "/garbage.bin";
  FILE* f = fopen(path.c_str(), "wb");
  fputs("this is not a graph file at all, not even close!!", f);
  fclose(f);
  auto loaded = CSRGraph::Load(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(CSRGraphTest, ArboricityWorkMatchesDefinition) {
  CSRGraph g = PaperGraph();
  uint64_t expected = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.Successors(u)) {
      expected += std::min(g.degree(u), g.degree(v));
    }
  }
  EXPECT_EQ(g.ArboricityWork(), expected);
}

TEST(EdgeListFileTest, ParsesAndSkipsComments) {
  const std::string path = testutil::ProcessTempDir() + "/edges.txt";
  FILE* f = fopen(path.c_str(), "wb");
  fputs("# comment line\n0 1\n1 2\n\n2 0\n", f);
  fclose(f);
  auto g = GraphBuilder::FromEdgeListFile(path);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 3u);
  std::remove(path.c_str());
}

TEST(EdgeListFileTest, RejectsMalformedLine) {
  const std::string path = testutil::ProcessTempDir() + "/bad_edges.txt";
  FILE* f = fopen(path.c_str(), "wb");
  fputs("0 1\nnot numbers\n", f);
  fclose(f);
  auto g = GraphBuilder::FromEdgeListFile(path);
  EXPECT_FALSE(g.ok());
  std::remove(path.c_str());
}

TEST(ReorderTest, DegreeOrderAscends) {
  CSRGraph g = PaperGraph();
  ReorderResult r = DegreeOrder(g);
  // Ids must ascend with degree.
  for (VertexId id = 0; id + 1 < r.graph.num_vertices(); ++id) {
    EXPECT_LE(r.graph.degree(id), r.graph.degree(id + 1));
  }
}

TEST(ReorderTest, PreservesStructure) {
  CSRGraph g = PaperGraph();
  ReorderResult r = DegreeOrder(g);
  EXPECT_EQ(r.graph.num_edges(), g.num_edges());
  // Edge set isomorphic under the permutation.
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.Neighbors(u)) {
      EXPECT_TRUE(r.graph.HasEdge(r.old_to_new[u], r.old_to_new[v]));
    }
  }
}

TEST(ReorderTest, PermutationIsInverse) {
  CSRGraph g = PaperGraph();
  ReorderResult r = RandomOrder(g, 42);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(r.old_to_new[r.new_to_old[v]], v);
    EXPECT_EQ(r.new_to_old[r.old_to_new[v]], v);
  }
}

TEST(ReorderTest, DegreeOrderShrinksSuccessorsOfHubs) {
  // On a star graph the hub must get the highest id, giving it an empty
  // successor list — the essence of the Schank–Wagner heuristic.
  GraphBuilder b;
  for (VertexId leaf = 1; leaf <= 10; ++leaf) b.AddEdge(0, leaf);
  CSRGraph star = std::move(b).Build();
  ReorderResult r = DegreeOrder(star);
  const VertexId hub = r.old_to_new[0];
  EXPECT_EQ(hub, star.num_vertices() - 1);
  EXPECT_TRUE(r.graph.Successors(hub).empty());
}

TEST(StatsTest, BasicCounts) {
  CSRGraph g = PaperGraph();
  GraphStats stats = ComputeStats(g);
  EXPECT_EQ(stats.num_vertices, 8u);
  EXPECT_EQ(stats.num_edges, 12u);
  EXPECT_EQ(stats.max_degree, 6u);
  EXPECT_DOUBLE_EQ(stats.avg_degree, 3.0);
}

TEST(StatsTest, TransitivityOfTriangle) {
  CSRGraph g = GraphBuilder::FromEdges({{0, 1}, {1, 2}, {0, 2}});
  // 3 wedges, 1 triangle -> transitivity 1.
  EXPECT_DOUBLE_EQ(Transitivity(g, 1), 1.0);
}

TEST(StatsTest, ClusteringCoefficientOfClique) {
  // K4: every vertex has clustering 1.
  GraphBuilder b;
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = u + 1; v < 4; ++v) b.AddEdge(u, v);
  }
  CSRGraph g = std::move(b).Build();
  std::vector<uint64_t> per_vertex(4, 3);  // each vertex in 3 triangles
  EXPECT_DOUBLE_EQ(AverageClusteringCoefficient(g, per_vertex), 1.0);
}

TEST(StatsTest, PathHasZeroClustering) {
  CSRGraph g = GraphBuilder::FromEdges({{0, 1}, {1, 2}, {2, 3}});
  std::vector<uint64_t> per_vertex(4, 0);
  EXPECT_DOUBLE_EQ(AverageClusteringCoefficient(g, per_vertex), 0.0);
}

class IntersectTest : public ::testing::TestWithParam<int> {};

TEST_P(IntersectTest, AllStrategiesAgreeOnRandomInputs) {
  Random64 rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    std::vector<VertexId> a, b;
    const size_t na = rng.Uniform(64);
    const size_t nb = rng.Uniform(512);
    for (size_t i = 0; i < na; ++i)
      a.push_back(static_cast<VertexId>(rng.Uniform(300)));
    for (size_t i = 0; i < nb; ++i)
      b.push_back(static_cast<VertexId>(rng.Uniform(300)));
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    std::sort(b.begin(), b.end());
    b.erase(std::unique(b.begin(), b.end()), b.end());

    std::vector<VertexId> merge_out, gallop_out, adaptive_out;
    constexpr IntersectKernel kScalar = IntersectKernel::kScalar;
    IntersectMergeWith(kScalar, a, b, &merge_out);
    IntersectGallopingWith(kScalar, a, b, &gallop_out);
    Intersect(a, b, &adaptive_out);
    EXPECT_EQ(merge_out, gallop_out);
    EXPECT_EQ(merge_out, adaptive_out);
    EXPECT_EQ(IntersectCountMergeWith(kScalar, a, b), merge_out.size());
    EXPECT_EQ(IntersectCountGallopingWith(kScalar, a, b), merge_out.size());
    EXPECT_EQ(IntersectCount(a, b), merge_out.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntersectTest, ::testing::Values(1, 2, 3, 4));

TEST(IntersectTest, EmptyInputs) {
  std::vector<VertexId> out;
  EXPECT_EQ(Intersect({}, {}, &out), 0u);
  std::vector<VertexId> a{1, 2, 3};
  EXPECT_EQ(Intersect(a, {}, &out), 0u);
  EXPECT_EQ(Intersect({}, a, &out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(IntersectTest, AppendsToExistingOutput) {
  std::vector<VertexId> a{1, 2, 3}, b{2, 3, 4};
  std::vector<VertexId> out{99};
  EXPECT_EQ(IntersectMergeWith(IntersectKernel::kScalar, a, b, &out), 2u);
  EXPECT_EQ(out, (std::vector<VertexId>{99, 2, 3}));
}

}  // namespace
}  // namespace opt
