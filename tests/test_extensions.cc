// Tests for the extension algorithms: degeneracy ordering and the
// streaming reservoir estimator.
#include <gtest/gtest.h>

#include "baselines/approx.h"
#include "gen/erdos_renyi.h"
#include "gen/holme_kim.h"
#include "graph/builder.h"
#include "graph/reorder.h"
#include "test_helpers.h"

namespace opt {
namespace {

TEST(DegeneracyOrderTest, CliqueDegeneracy) {
  GraphBuilder b;
  for (VertexId u = 0; u < 6; ++u) {
    for (VertexId v = u + 1; v < 6; ++v) b.AddEdge(u, v);
  }
  uint32_t degeneracy = 0;
  DegeneracyOrder(std::move(b).Build(), &degeneracy);
  EXPECT_EQ(degeneracy, 5u);
}

TEST(DegeneracyOrderTest, TreeDegeneracyIsOne) {
  GraphBuilder b;
  for (VertexId v = 1; v < 64; ++v) b.AddEdge(v / 2, v);  // binary tree
  uint32_t degeneracy = 0;
  DegeneracyOrder(std::move(b).Build(), &degeneracy);
  EXPECT_EQ(degeneracy, 1u);
}

TEST(DegeneracyOrderTest, SuccessorBoundHolds) {
  // The defining property: after reordering, |n_succ(v)| <= degeneracy.
  CSRGraph g = GenerateHolmeKim({.num_vertices = 1500,
                                 .edges_per_vertex = 5,
                                 .triad_probability = 0.5,
                                 .seed = 6});
  uint32_t degeneracy = 0;
  ReorderResult r = DegeneracyOrder(g, &degeneracy);
  EXPECT_GE(degeneracy, 1u);
  for (VertexId v = 0; v < r.graph.num_vertices(); ++v) {
    EXPECT_LE(r.graph.Successors(v).size(), degeneracy) << "vertex " << v;
  }
}

TEST(DegeneracyOrderTest, PreservesTriangleCount) {
  CSRGraph g = GenerateErdosRenyi(300, 2500, 8);
  ReorderResult r = DegeneracyOrder(g);
  EXPECT_EQ(testutil::OracleCount(r.graph), testutil::OracleCount(g));
}

TEST(StreamingReservoirTest, ExactWhenReservoirHoldsAllEdges) {
  CSRGraph g = GenerateErdosRenyi(200, 1500, 9);
  ApproxResult result = StreamingReservoirEstimate(g, g.num_edges(), 3);
  EXPECT_DOUBLE_EQ(result.estimate,
                   static_cast<double>(testutil::OracleCount(g)));
}

TEST(StreamingReservoirTest, EstimateWithinToleranceAveraged) {
  CSRGraph g = GenerateHolmeKim({.num_vertices = 1200,
                                 .edges_per_vertex = 6,
                                 .triad_probability = 0.6,
                                 .seed = 10});
  const double exact = static_cast<double>(testutil::OracleCount(g));
  double sum = 0;
  constexpr int kTrials = 8;
  for (int i = 0; i < kTrials; ++i) {
    sum += StreamingReservoirEstimate(g, g.num_edges() / 2, 200 + i)
               .estimate;
  }
  EXPECT_NEAR(sum / kTrials / exact, 1.0, 0.2);
}

TEST(StreamingReservoirTest, EmptyGraph) {
  EXPECT_DOUBLE_EQ(
      StreamingReservoirEstimate(GraphBuilder::FromEdges({}), 100, 1)
          .estimate,
      0.0);
}

}  // namespace
}  // namespace opt
