// Tests for the triangle-based analysis extensions: k-truss
// decomposition and 4-clique counting.
#include <gtest/gtest.h>

#include "analysis/clique4.h"
#include "analysis/ktruss.h"
#include "gen/erdos_renyi.h"
#include "gen/holme_kim.h"
#include "graph/builder.h"
#include "test_helpers.h"

namespace opt {
namespace {

CSRGraph Clique(VertexId k) {
  GraphBuilder b;
  for (VertexId u = 0; u < k; ++u) {
    for (VertexId v = u + 1; v < k; ++v) b.AddEdge(u, v);
  }
  return std::move(b).Build();
}

TEST(KTrussTest, CliqueHasTrussK) {
  // Every edge of K_k lies in k-2 triangles even after any peeling
  // sequence, so the whole clique is the k-truss.
  for (VertexId k : {3, 4, 5, 6}) {
    KTrussResult result = KTrussDecomposition(Clique(k));
    EXPECT_EQ(result.max_truss, static_cast<uint32_t>(k)) << "K_" << k;
    for (uint32_t t : result.truss) EXPECT_EQ(t, static_cast<uint32_t>(k));
  }
}

TEST(KTrussTest, TriangleFreeGraphIsTwoTruss) {
  GraphBuilder b;
  for (VertexId v = 0; v + 1 < 20; ++v) b.AddEdge(v, v + 1);
  KTrussResult result = KTrussDecomposition(std::move(b).Build());
  EXPECT_EQ(result.max_truss, 2u);
  for (uint32_t t : result.truss) EXPECT_EQ(t, 2u);
}

TEST(KTrussTest, CliqueWithPendantEdge) {
  // K5 plus a pendant edge: clique edges are 5-truss, the pendant is 2.
  GraphBuilder b;
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) b.AddEdge(u, v);
  }
  b.AddEdge(0, 5);
  KTrussResult result = KTrussDecomposition(std::move(b).Build());
  EXPECT_EQ(result.max_truss, 5u);
  for (size_t e = 0; e < result.edges.size(); ++e) {
    if (result.edges[e] == std::pair<VertexId, VertexId>{0, 5}) {
      EXPECT_EQ(result.truss[e], 2u);
    } else {
      EXPECT_EQ(result.truss[e], 5u);
    }
  }
}

TEST(KTrussTest, TwoCliquesSharedEdge) {
  // Two K4s sharing the edge (0,1): all edges end up in the 4-truss.
  GraphBuilder b;
  for (VertexId u : {0, 1, 2, 3}) {
    for (VertexId v : {0, 1, 2, 3}) {
      if (u < v) b.AddEdge(u, v);
    }
  }
  for (VertexId u : {0, 1, 4, 5}) {
    for (VertexId v : {0, 1, 4, 5}) {
      if (u < v) b.AddEdge(u, v);
    }
  }
  KTrussResult result = KTrussDecomposition(std::move(b).Build());
  EXPECT_EQ(result.max_truss, 4u);
}

uint64_t EdgeSupport(const CSRGraph& g, VertexId u, VertexId v) {
  uint64_t count = 0;
  for (VertexId w : g.Neighbors(u)) {
    if (w != v && g.HasEdge(v, w)) ++count;
  }
  return count;
}

TEST(KTrussTest, TrussNeverExceedsSupportPlusTwo) {
  CSRGraph g = GenerateHolmeKim({.num_vertices = 500,
                                 .edges_per_vertex = 4,
                                 .triad_probability = 0.6,
                                 .seed = 5});
  KTrussResult result = KTrussDecomposition(g);
  for (size_t e = 0; e < result.edges.size(); ++e) {
    const auto [u, v] = result.edges[e];
    const uint64_t support = EdgeSupport(g, u, v);
    EXPECT_LE(result.truss[e], support + 2);
    EXPECT_GE(result.truss[e], 2u);
  }
}

TEST(Clique4Test, CliqueCounts) {
  // K_k contains C(k, 4) 4-cliques.
  EXPECT_EQ(Count4Cliques(Clique(3)), 0u);
  EXPECT_EQ(Count4Cliques(Clique(4)), 1u);
  EXPECT_EQ(Count4Cliques(Clique(5)), 5u);
  EXPECT_EQ(Count4Cliques(Clique(6)), 15u);
  EXPECT_EQ(Count4Cliques(Clique(8)), 70u);
}

TEST(Clique4Test, CountMatchesBruteForce) {
  CSRGraph g = GenerateErdosRenyi(60, 500, 3);
  uint64_t brute = 0;
  const VertexId n = g.num_vertices();
  for (VertexId a = 0; a < n; ++a) {
    for (VertexId b = a + 1; b < n; ++b) {
      if (!g.HasEdge(a, b)) continue;
      for (VertexId c = b + 1; c < n; ++c) {
        if (!g.HasEdge(a, c) || !g.HasEdge(b, c)) continue;
        for (VertexId d = c + 1; d < n; ++d) {
          if (g.HasEdge(a, d) && g.HasEdge(b, d) && g.HasEdge(c, d)) {
            ++brute;
          }
        }
      }
    }
  }
  EXPECT_EQ(Count4Cliques(g), brute);
}

TEST(Clique4Test, ParallelMatchesSerial) {
  CSRGraph g = GenerateHolmeKim({.num_vertices = 800,
                                 .edges_per_vertex = 5,
                                 .triad_probability = 0.7,
                                 .seed = 9});
  EXPECT_EQ(Count4Cliques(g, 1), Count4Cliques(g, 4));
}

}  // namespace
}  // namespace opt
