// Tests for the experiment harness: dataset stand-ins, the uniform
// method runner, Amdahl helpers.
#include <gtest/gtest.h>

#include <set>

#include "harness/amdahl.h"
#include "harness/datasets.h"
#include "harness/methods.h"
#include "test_helpers.h"

namespace opt {
namespace {

TEST(AmdahlTest, KnownValues) {
  EXPECT_DOUBLE_EQ(AmdahlUpperBound(1.0, 6), 6.0);
  EXPECT_DOUBLE_EQ(AmdahlUpperBound(0.0, 6), 1.0);
  EXPECT_NEAR(AmdahlUpperBound(0.961, 6), 5.03, 0.01);  // Table 5, LJ/OPT
  EXPECT_NEAR(AmdahlUpperBound(0.271, 6), 1.29, 0.01);  // GraphChi, LJ
}

TEST(AmdahlTest, MonotoneInCoresAndFraction) {
  EXPECT_LT(AmdahlUpperBound(0.9, 2), AmdahlUpperBound(0.9, 6));
  EXPECT_LT(AmdahlUpperBound(0.5, 6), AmdahlUpperBound(0.9, 6));
}

TEST(DatasetsTest, FiveDatasetsInSizeOrder) {
  auto specs = PaperDatasets(3);
  ASSERT_EQ(specs.size(), 5u);
  std::set<std::string> names;
  for (const auto& spec : specs) names.insert(spec.paper_name);
  EXPECT_EQ(names, (std::set<std::string>{"LJ", "ORKUT", "TWITTER", "UK",
                                          "YAHOO"}));
  // YAHOO has the most vertices, as in Table 2.
  EXPECT_GE(specs[4].scale, specs[0].scale);
}

TEST(DatasetsTest, ScaleShiftShrinks) {
  auto large = PaperDatasets(0);
  auto small = PaperDatasets(4);
  EXPECT_GT(large[0].scale, small[0].scale);
}

TEST(DatasetsTest, BuildAppliesDegreeOrder) {
  auto specs = PaperDatasets(5);
  CSRGraph g = BuildDataset(specs[0]);
  for (VertexId v = 0; v + 1 < g.num_vertices(); ++v) {
    ASSERT_LE(g.degree(v), g.degree(v + 1));
  }
}

TEST(DatasetsTest, MaterializeRoundtrip) {
  auto specs = PaperDatasets(6);
  CSRGraph graph;
  auto store = MaterializeDataset(specs[0], Env::Default(),
                                  testutil::ProcessTempDir(), 512, &graph);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->num_vertices(), graph.num_vertices());
  EXPECT_EQ((*store)->num_directed_edges(), graph.num_directed_edges());
}

TEST(DatasetsTest, BufferPercentMath) {
  auto specs = PaperDatasets(6);
  auto store = MaterializeDataset(specs[0], Env::Default(),
                                  testutil::ProcessTempDir(), 512);
  ASSERT_TRUE(store.ok());
  const uint32_t p15 = PagesForBufferPercent(**store, 15.0);
  const uint32_t p25 = PagesForBufferPercent(**store, 25.0);
  EXPECT_LT(p15, p25);
  EXPECT_GE(p15, 2u);
}

class MethodRunnerTest : public ::testing::TestWithParam<Method> {};

TEST_P(MethodRunnerTest, AllMethodsAgreeOnTriangleCount) {
  auto specs = PaperDatasets(6);  // small: scale 8
  CSRGraph graph;
  auto store = MaterializeDataset(specs[0], Env::Default(),
                                  testutil::ProcessTempDir(), 256, &graph);
  ASSERT_TRUE(store.ok());
  const uint64_t oracle = testutil::OracleCount(graph);

  MethodConfig config;
  config.memory_pages = std::max((*store)->MaxRecordPages() * 2,
                                 (*store)->num_pages() / 5);
  config.num_threads = 2;
  config.temp_dir = testutil::ProcessTempDir();
  auto result = RunMethod(GetParam(), store->get(), Env::Default(), config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->triangles, oracle) << result->method;
  EXPECT_GT(result->seconds, 0.0);

  // A forced kernel reaches every thread the method intersects on.
  config.kernel = IntersectKernel::kScalar;
  auto forced = RunMethod(GetParam(), store->get(), Env::Default(), config);
  ASSERT_TRUE(forced.ok()) << forced.status().ToString();
  EXPECT_EQ(forced->triangles, oracle) << forced->method;
  EXPECT_EQ(forced->kernel_used, IntersectKernel::kScalar);
  EXPECT_EQ(forced->intersect.calls[static_cast<int>(IntersectKernel::kScalar)],
            forced->intersect.TotalCalls())
      << forced->method;
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, MethodRunnerTest,
    ::testing::Values(Method::kOpt, Method::kOptSerial, Method::kOptNoMorph,
                      Method::kOptVertexIter, Method::kMgt, Method::kCcSeq,
                      Method::kCcDs, Method::kGraphChiTri,
                      Method::kGraphChiTriSerial, Method::kIdeal),
    [](const ::testing::TestParamInfo<Method>& info) {
      std::string name = MethodName(info.param);
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(MethodRunnerTest, MgtReadsMoreThanOpt) {
  // Eq. 7: MGT's I/O exceeds OPT_serial's.
  auto specs = PaperDatasets(6);
  auto store = MaterializeDataset(specs[1], Env::Default(),
                                  testutil::ProcessTempDir(), 256);
  ASSERT_TRUE(store.ok());
  MethodConfig config;
  config.memory_pages = std::max((*store)->MaxRecordPages() * 2,
                                 (*store)->num_pages() / 5);
  config.temp_dir = testutil::ProcessTempDir();
  auto opt = RunMethod(Method::kOptSerial, store->get(), Env::Default(),
                       config);
  auto mgt = RunMethod(Method::kMgt, store->get(), Env::Default(), config);
  ASSERT_TRUE(opt.ok());
  ASSERT_TRUE(mgt.ok());
  EXPECT_EQ(opt->triangles, mgt->triangles);
  EXPECT_GT(mgt->pages_read, opt->pages_read);
}

}  // namespace
}  // namespace opt
