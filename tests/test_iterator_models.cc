// Unit tests of the three framework plug points (InternalTriangles,
// CollectCandidates, ExternalTriangles) for both iterator models,
// replaying the paper's worked example of §3.2/Figure 2: the internal
// area holds n(a)..n(d); {e,f,g,h} become external candidates; the
// internal triangles are {abc, cdf} and the external ones {def, cfg,
// cgh}. Resident lists come from a SuccessorIndex over the plan's range
// and loaded external records from a RecordDecoder, as in OptRunner. The
// marker-reuse tests run one ModelScratch through a sequence
// of overlapping records and check every call, on the Emit path and on
// the count path, against std::set_intersection and against the
// intersect work it must record, and check the marker is all zero after
// each call.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <span>

#include "core/iterator_model.h"
#include "core/successor_index.h"
#include "core/triangle_sink.h"
#include "graph/builder.h"
#include "graph/intersect.h"
#include "storage/graph_store.h"
#include "storage/record_scanner.h"
#include "test_helpers.h"
#include "util/random.h"

namespace opt {
namespace {

constexpr VertexId A = 0, B = 1, C = 2, D = 3, E = 4, F = 5, G = 6, H = 7;

CSRGraph PaperGraph() {
  GraphBuilder b;
  b.AddEdge(A, B);
  b.AddEdge(A, C);
  b.AddEdge(B, C);
  b.AddEdge(C, D);
  b.AddEdge(C, F);
  b.AddEdge(C, G);
  b.AddEdge(C, H);
  b.AddEdge(D, E);
  b.AddEdge(D, F);
  b.AddEdge(E, F);
  b.AddEdge(F, G);
  b.AddEdge(G, H);
  return std::move(b).Build();
}

/// Every record of `pages` (the whole store, in page order) as the
/// decoder yields it: stands in for the chunks a run loads.
class DecodedRecords {
 public:
  void Decode(const GraphStore& store, const std::vector<const char*>& pages) {
    all_.assign(store.num_vertices(), {});
    succ_begin_.assign(store.num_vertices(), 0);
    RecordDecoder decoder(store);
    for (uint32_t pid = 0; pid < pages.size(); ++pid) {
      const Status s = decoder.Feed(
          pages[pid], pid, [this](VertexId v, const AdjacencyRef& adj) {
            all_[v].assign(adj.all.begin(), adj.all.end());
            succ_begin_[v] = adj.succ_begin;
            return Status::OK();
          });
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
  }

  AdjacencyRef Get(VertexId v) const { return {all_[v], succ_begin_[v]}; }

 private:
  std::vector<std::vector<VertexId>> all_;
  std::vector<uint32_t> succ_begin_;
};

/// Builds the internal area's SuccessorIndex for the paper's iteration
/// (n(a)..n(d) resident) and decodes the whole graph, from which
/// external records are taken.
class ModelFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = PaperGraph();
    store_ = testutil::MakeStore(graph_, Env::Default(), "model_fixture",
                                 4096);
    pages_.resize(store_->num_pages());
    for (uint32_t pid = 0; pid < store_->num_pages(); ++pid) {
      pages_[pid].resize(store_->page_size());
      ASSERT_TRUE(store_->file()->ReadPage(pid, pages_[pid].data()).ok());
      data_.push_back(pages_[pid].data());
    }
    chunk_.Decode(*store_, data_);
    // The paper's iteration: n(a)..n(d) resident.
    plan_.v_lo = A;
    plan_.v_hi = D;
    plan_.pid_lo = 0;
    plan_.pid_hi = store_->num_pages() - 1;
    ASSERT_TRUE(internal_.Build(*store_, plan_, data_).ok());
  }

  Segment SegmentOf(VertexId v) {
    // Single page at 4096B: find v's segment in page 0.
    PageView page(data_[0], store_->page_size());
    for (uint32_t s = 0; s < page.num_slots(); ++s) {
      if (page.GetSegment(s).vertex == v) return page.GetSegment(s);
    }
    ADD_FAILURE() << "segment for vertex " << v << " not found";
    return {};
  }

  CSRGraph graph_;
  std::unique_ptr<GraphStore> store_;
  std::vector<std::vector<char>> pages_;
  std::vector<const char*> data_;
  DecodedRecords chunk_;
  IterationPlan plan_;
  SuccessorIndex internal_;
};

TEST_F(ModelFixture, EdgeIteratorInternalTrianglesMatchPaper) {
  EdgeIteratorModel model;
  VectorSink sink;
  ModelScratch scratch(graph_.num_vertices());
  for (VertexId u = plan_.v_lo; u <= plan_.v_hi; ++u) {
    model.InternalTriangles(internal_, plan_, u, &sink, &scratch);
  }
  auto triangles = sink.Sorted();
  ASSERT_EQ(triangles.size(), 2u);
  EXPECT_EQ(triangles[0], (Triangle{A, B, C}));
  EXPECT_EQ(triangles[1], (Triangle{C, D, F}));
}

TEST_F(ModelFixture, EdgeIteratorCandidatesMatchPaper) {
  EdgeIteratorModel model;
  std::vector<VertexId> candidates;
  for (VertexId u = plan_.v_lo; u <= plan_.v_hi; ++u) {
    model.CollectCandidates(plan_, SegmentOf(u), &candidates);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  // §3.2: "{e, f, g, h} is identified as V_ex".
  EXPECT_EQ(candidates, (std::vector<VertexId>{E, F, G, H}));
}

TEST_F(ModelFixture, EdgeIteratorExternalTrianglesMatchPaper) {
  EdgeIteratorModel model;
  VectorSink sink;
  ModelScratch scratch(graph_.num_vertices());
  for (VertexId v : {E, F, G, H}) {
    AdjacencyRef adj = chunk_.Get(v);
    model.ExternalTriangles(internal_, plan_, v, adj, &sink, &scratch);
  }
  auto triangles = sink.Sorted();
  ASSERT_EQ(triangles.size(), 3u);
  EXPECT_EQ(triangles[0], (Triangle{C, F, G}));  // cfg
  EXPECT_EQ(triangles[1], (Triangle{C, G, H}));  // cgh
  EXPECT_EQ(triangles[2], (Triangle{D, E, F}));  // def
}

TEST_F(ModelFixture, VertexIteratorSplitsTheSameFiveTriangles) {
  // VI partitions triangles differently (by the residency of the two
  // lowest vertices), but internal + external must still total the
  // paper's five.
  VertexIteratorModel model;
  VectorSink internal, external;
  ModelScratch scratch(graph_.num_vertices());
  for (VertexId u = plan_.v_lo; u <= plan_.v_hi; ++u) {
    model.InternalTriangles(internal_, plan_, u, &internal, &scratch);
  }
  std::vector<VertexId> candidates;
  for (VertexId u = plan_.v_lo; u <= plan_.v_hi; ++u) {
    model.CollectCandidates(plan_, SegmentOf(u), &candidates);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  for (VertexId v : candidates) {
    model.ExternalTriangles(internal_, plan_, v, chunk_.Get(v), &external,
                            &scratch);
  }
  std::vector<Triangle> all = internal.Sorted();
  auto ext = external.Sorted();
  all.insert(all.end(), ext.begin(), ext.end());
  std::sort(all.begin(), all.end());
  // With v_lo = 0 there are no lower-id candidates, so in this single
  // first iteration VI finds the triangles whose two lowest vertices
  // are resident.
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
  EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end())
      << "no duplicates between internal and external paths";
  for (const Triangle& t : all) {
    EXPECT_LE(t.u, static_cast<VertexId>(D));  // anchored in residency
  }
}

TEST_F(ModelFixture, FullResidencyFindsEverythingInternally) {
  // When the whole graph is resident (plan covers all ids), the
  // internal path alone must produce all five triangles for both
  // models and the candidate sets must be empty.
  IterationPlan full;
  full.v_lo = 0;
  full.v_hi = graph_.num_vertices() - 1;
  full.pid_lo = 0;
  full.pid_hi = store_->num_pages() - 1;
  SuccessorIndex resident;
  ASSERT_TRUE(resident.Build(*store_, full, data_).ok());

  EdgeIteratorModel ei;
  VertexIteratorModel vi;
  for (const IteratorModel* model :
       {static_cast<const IteratorModel*>(&ei),
        static_cast<const IteratorModel*>(&vi)}) {
    VectorSink sink;
    ModelScratch scratch(graph_.num_vertices());
    std::vector<VertexId> candidates;
    for (VertexId u = 0; u < graph_.num_vertices(); ++u) {
      model->InternalTriangles(resident, full, u, &sink, &scratch);
      model->CollectCandidates(full, SegmentOf(u), &candidates);
    }
    EXPECT_EQ(sink.Sorted(), testutil::OracleTriangles(graph_))
        << model->name();
    EXPECT_TRUE(candidates.empty()) << model->name();
  }
}

// ---------------------------------------------------------------------------
// Marker reuse: one scratch across many records.
// ---------------------------------------------------------------------------

/// One Emit call.
struct Call {
  VertexId u, v;
  std::vector<VertexId> ws;
  bool operator==(const Call&) const = default;
};

class RecordingSink : public TriangleSink {
 public:
  void Emit(VertexId u, VertexId v, std::span<const VertexId> ws) override {
    calls.push_back({u, v, {ws.begin(), ws.end()}});
  }
  std::vector<Call> calls;
};

/// A counts_only() sink that records what the models hand it.
class TallySink : public TriangleSink {
 public:
  void Emit(VertexId, VertexId, std::span<const VertexId>) override {
    ++emits;
  }
  bool counts_only() const override { return true; }
  void AddCount(uint64_t n) override {
    ++adds;
    total += n;
  }
  uint64_t emits = 0, adds = 0, total = 0;
};

uint64_t Triangles(const std::vector<Call>& calls) {
  uint64_t total = 0;
  for (const Call& c : calls) total += c.ws.size();
  return total;
}

/// The intersect work one model call must record: one call per probe
/// whose partner list, clamped to the marked list's id range, is not
/// empty, consuming that clamp plus the marked list.
struct Work {
  uint64_t calls = 0, elements = 0;

  void AddProbe(std::span<const VertexId> marked,
                std::span<const VertexId> partner) {
    if (marked.empty()) return;
    const auto first =
        std::lower_bound(partner.begin(), partner.end(), marked.front());
    const auto last = std::upper_bound(first, partner.end(), marked.back());
    if (first == last) return;
    ++calls;
    elements += static_cast<uint64_t>(last - first) + marked.size();
  }
};

/// `got` holds exactly `want`, all of it in the mark-and-probe slot.
void ExpectProbeWork(const IntersectCounters& got, const Work& want) {
  const int slot = static_cast<int>(IntersectKernel::kBitmapScalar);
  EXPECT_EQ(got.calls[slot], want.calls);
  EXPECT_EQ(got.elements[slot], want.elements);
  EXPECT_EQ(got.TotalCalls(), want.calls);
  EXPECT_EQ(got.TotalElements(), want.elements);
}

void ExpectMarkerClear(const ModelScratch& scratch) {
  const auto words = scratch.marker.words();
  EXPECT_TRUE(std::all_of(words.begin(), words.end(),
                          [](uint64_t w) { return w == 0; }))
      << "marker bits left set";
}

/// Runs one model call through the Emit path and again through the
/// count path, both on `scratch`. The Emit path must produce exactly
/// `want`; the count path must add the same number of triangles in at
/// most one AddCount and no Emit; both must record `work` and leave the
/// marker all zero.
template <typename ModelCall>
void CheckBothPaths(const std::vector<Call>& want, const Work& work,
                    const ModelScratch& scratch, ModelCall call) {
  RecordingSink emitted;
  IntersectCounters before = SnapshotIntersectCounters();
  call(&emitted);
  ExpectProbeWork(IntersectCounters::Delta(SnapshotIntersectCounters(),
                                           before),
                  work);
  ExpectMarkerClear(scratch);
  ASSERT_EQ(emitted.calls, want);

  TallySink counted;
  before = SnapshotIntersectCounters();
  call(&counted);
  ExpectProbeWork(IntersectCounters::Delta(SnapshotIntersectCounters(),
                                           before),
                  work);
  ExpectMarkerClear(scratch);
  EXPECT_EQ(counted.emits, 0u);
  EXPECT_LE(counted.adds, 1u);
  ASSERT_EQ(counted.total, Triangles(want));
}

std::vector<VertexId> Common(std::span<const VertexId> a,
                             std::span<const VertexId> b) {
  std::vector<VertexId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// 1000 vertices whose successor lists overlap heavily. Resident ranges
/// are [0, 499] (edge model) and [500, 999] (vertex model). Vertex 700
/// is the edge model's external hub (hundreds of requesters below 500),
/// vertex 100 the vertex model's (hundreds of successors above 499);
/// 990 and 499 have empty successor lists.
constexpr VertexId kEdgeHub = 700, kVertexHub = 100;
constexpr VertexId kEdgeEmpty = 990, kVertexEmpty = 499;

CSRGraph MarkerGraph() {
  Random64 rng(2718);
  GraphBuilder b;
  const auto pick = [&rng](VertexId lo, VertexId hi_excl) {
    return static_cast<VertexId>(lo + rng.Uniform(hi_excl - lo));
  };
  for (VertexId u = 0; u < 499; ++u) {
    for (int i = 0; i < 4; ++i) b.AddEdge(u, pick(500, 900));
    for (int i = 0; i < 3; ++i) {
      const VertexId w = pick(0, 499);
      if (w != u) b.AddEdge(u, w);
    }
  }
  b.AddEdge(10, kVertexEmpty);
  b.AddEdge(20, kVertexEmpty);
  for (VertexId v = 500; v < 999; ++v) {
    if (v == kEdgeEmpty) continue;
    for (int i = 0; i < 3; ++i) b.AddEdge(v, pick(v + 1, 1000));
  }
  for (int i = 0; i < 300; ++i) {
    b.AddEdge(pick(0, 499), kEdgeHub);
    b.AddEdge(kVertexHub, pick(500, 900));
  }
  for (int i = 0; i < 150; ++i) b.AddEdge(kEdgeHub, pick(701, 900));
  for (int i = 0; i < 20; ++i) b.AddEdge(pick(0, 499), kEdgeEmpty);
  return std::move(b).Build();
}

/// Runs InternalTriangles for every resident vertex, then
/// ExternalTriangles for the hub, the empty record and every other
/// record in ascending order of its largest successor (so later records
/// reach ids past every earlier maximum), all through ONE scratch whose
/// marker spans |V|. Every call must emit exactly
/// (u, v, n_succ(u) ∩ n_succ(v)) for its pairs, in order, and its count
/// probe, run next on the same scratch, must add their total size.
void CheckMarkerReuse(const IteratorModel& model, bool edge_model) {
  const CSRGraph g = MarkerGraph();
  auto store = testutil::MakeStore(g, Env::Default(),
                                   std::string("marker_") + model.name(),
                                   4096);
  std::vector<std::vector<char>> pages(store->num_pages());
  std::vector<const char*> data;
  for (uint32_t pid = 0; pid < store->num_pages(); ++pid) {
    pages[pid].resize(store->page_size());
    ASSERT_TRUE(store->file()->ReadPage(pid, pages[pid].data()).ok());
    data.push_back(pages[pid].data());
  }
  DecodedRecords chunk;
  chunk.Decode(*store, data);
  IterationPlan plan;
  plan.v_lo = edge_model ? 0 : 500;
  plan.v_hi = edge_model ? 499 : 999;
  plan.pid_lo = 0;
  plan.pid_hi = store->num_pages() - 1;
  SuccessorIndex internal;
  ASSERT_TRUE(internal.Build(*store, plan, data).ok());
  const auto in_plan = [&plan](VertexId x) {
    return x >= plan.v_lo && x <= plan.v_hi;
  };
  // One probe of the pair (u, v) with `marked`'s list marked (u or v).
  const auto pair = [&g](VertexId u, VertexId v, VertexId marked,
                         std::vector<Call>* out, Work* work) {
    std::vector<VertexId> ws = Common(g.Successors(u), g.Successors(v));
    if (!ws.empty()) out->push_back({u, v, std::move(ws)});
    work->AddProbe(g.Successors(marked), g.Successors(marked == u ? v : u));
  };

  ModelScratch scratch(g.num_vertices());
  for (VertexId u = plan.v_lo; u <= plan.v_hi; ++u) {
    SCOPED_TRACE("internal u=" + std::to_string(u));
    std::vector<Call> want;
    Work work;
    for (VertexId v : g.Successors(u)) {
      if (in_plan(v)) pair(u, v, u, &want, &work);
    }
    CheckBothPaths(want, work, scratch, [&](TriangleSink* sink) {
      model.InternalTriangles(internal, plan, u, sink, &scratch);
    });
  }

  const VertexId hub = edge_model ? kEdgeHub : kVertexHub;
  const VertexId empty = edge_model ? kEdgeEmpty : kVertexEmpty;
  ASSERT_TRUE(g.Successors(empty).empty());
  std::vector<VertexId> rest;
  for (VertexId x = 0; x < g.num_vertices(); ++x) {
    if (!in_plan(x) && x != hub && x != empty && !g.Successors(x).empty()) {
      rest.push_back(x);
    }
  }
  std::stable_sort(rest.begin(), rest.end(), [&g](VertexId a, VertexId b) {
    return g.Successors(a).back() < g.Successors(b).back();
  });
  ASSERT_LT(g.Successors(hub).back(), g.Successors(rest.back()).back());
  std::vector<VertexId> records{hub, empty};
  records.insert(records.end(), rest.begin(), rest.end());

  uint64_t hub_pairs = 0;
  for (VertexId x : records) {
    SCOPED_TRACE("external record " + std::to_string(x));
    std::vector<Call> want;
    Work work;
    uint64_t requesters = 0;
    if (edge_model) {
      // Requesters u ∈ n_prec(x) ∩ [v_lo, v_hi].
      for (VertexId u : g.Neighbors(x)) {
        if (u < x && in_plan(u)) {
          ++requesters;
          pair(u, x, x, &want, &work);
        }
      }
    } else {
      // Requesters v ∈ n_succ(x) ∩ [v_lo, v_hi].
      for (VertexId v : g.Successors(x)) {
        if (in_plan(v)) {
          ++requesters;
          pair(x, v, x, &want, &work);
        }
      }
    }
    if (x == hub) {
      ASSERT_GE(requesters, 200u);
      hub_pairs = want.size();
    }
    CheckBothPaths(want, work, scratch, [&](TriangleSink* sink) {
      model.ExternalTriangles(internal, plan, x, chunk.Get(x), sink,
                              &scratch);
    });
  }
  EXPECT_GT(hub_pairs, 0u);
}

TEST(MarkerReuse, EdgeIteratorOneScratchMatchesSetIntersection) {
  CheckMarkerReuse(EdgeIteratorModel(), /*edge_model=*/true);
}

TEST(MarkerReuse, VertexIteratorOneScratchMatchesSetIntersection) {
  CheckMarkerReuse(VertexIteratorModel(), /*edge_model=*/false);
}

}  // namespace
}  // namespace opt
