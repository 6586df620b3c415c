// Unit tests for the storage engine: page codec, page file, async I/O
// engine, graph store, record decoder and scanner, fault injection. The buffer pool
// has its own suite (test_buffer_pool.cc).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "gen/erdos_renyi.h"
#include "graph/builder.h"
#include "storage/async_io.h"
#include "storage/buffer_pool.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "storage/graph_store.h"
#include "storage/page.h"
#include "storage/page_file.h"
#include "storage/record_scanner.h"
#include "test_helpers.h"
#include "util/coding.h"
#include "util/stopwatch.h"

namespace opt {
namespace {

TEST(PageCodecTest, RoundtripSegments) {
  std::vector<char> buf(512);
  PageBuilder builder(buf.data(), 512, 7);
  const std::vector<VertexId> n0{1, 2, 3};
  const std::vector<VertexId> n1{0, 2};
  builder.AddSegment(10, 3, 0, n0);
  builder.AddSegment(11, 2, 0, n1);
  builder.Finish();

  PageView view(buf.data(), 512);
  ASSERT_TRUE(view.Validate(7).ok());
  EXPECT_EQ(view.page_id(), 7u);
  EXPECT_EQ(view.num_slots(), 2u);
  EXPECT_FALSE(view.first_segment_is_continuation());

  Segment s0 = view.GetSegment(0);
  EXPECT_EQ(s0.vertex, 10u);
  EXPECT_EQ(s0.total_degree, 3u);
  EXPECT_TRUE(std::equal(s0.neighbors.begin(), s0.neighbors.end(),
                         n0.begin(), n0.end()));
  Segment s1 = view.GetSegment(1);
  EXPECT_EQ(s1.vertex, 11u);
  EXPECT_EQ(s1.neighbors.size(), 2u);
}

TEST(PageCodecTest, ContinuationFlag) {
  std::vector<char> buf(256);
  PageBuilder builder(buf.data(), 256, 3);
  const std::vector<VertexId> tail{5, 6};
  builder.AddSegment(4, 10, 8, tail);  // offset 8 > 0: continuation
  builder.Finish();
  PageView view(buf.data(), 256);
  EXPECT_TRUE(view.first_segment_is_continuation());
  Segment seg = view.GetSegment(0);
  EXPECT_FALSE(seg.IsFirstSegment());
  EXPECT_TRUE(seg.IsLastSegment());
}

TEST(PageCodecTest, CrcDetectsCorruption) {
  std::vector<char> buf(256);
  PageBuilder builder(buf.data(), 256, 0);
  const std::vector<VertexId> n{1};
  builder.AddSegment(0, 1, 0, n);
  builder.Finish();
  ASSERT_TRUE(PageView(buf.data(), 256).Validate(0).ok());
  buf[100] ^= 0x40;
  EXPECT_TRUE(PageView(buf.data(), 256).Validate(0).IsCorruption());
}

TEST(PageCodecTest, ValidateRefusesASegmentOutsideThePage) {
  // A segment count or slot offset rewritten under a re-stamped CRC
  // would make GetSegment read past the page.
  std::vector<char> buf(256);
  PageBuilder builder(buf.data(), 256, 0);
  const std::vector<VertexId> n{1, 2};
  builder.AddSegment(0, 2, 0, n);
  builder.Finish();
  for (const auto& [at, value] :
       {std::pair<size_t, uint32_t>{kPageHeaderSize + 12, 59},  // count
        {256 - kSlotSize, 254},                              // unaligned
        {256 - kSlotSize, 240},                              // past the end
        {8, 60}}) {                                          // slots
    std::vector<char> page = buf;
    EncodeFixed32(page.data() + at, value);
    EncodeFixed32(page.data() + 16, ComputePageCrc(page.data(), 256));
    const Status s = PageView(page.data(), 256).Validate(0);
    EXPECT_TRUE(s.IsCorruption()) << at << ": " << s.ToString();
  }
  EncodeFixed32(buf.data() + kPageHeaderSize + 12, 1);  // a shorter count
  EncodeFixed32(buf.data() + 16, ComputePageCrc(buf.data(), 256));
  EXPECT_TRUE(PageView(buf.data(), 256).Validate(0).ok());
}

TEST(PageCodecTest, ValidateChecksPageId) {
  std::vector<char> buf(256);
  PageBuilder builder(buf.data(), 256, 5);
  builder.Finish();
  EXPECT_TRUE(PageView(buf.data(), 256).Validate(6).IsCorruption());
}

TEST(PageCodecTest, CapacityShrinksAsSegmentsAdded) {
  std::vector<char> buf(256);
  PageBuilder builder(buf.data(), 256, 0);
  const uint32_t before = builder.FreeNeighborCapacity();
  std::vector<VertexId> n(10);
  builder.AddSegment(1, 10, 0, n);
  EXPECT_LT(builder.FreeNeighborCapacity(), before);
}

TEST(PageFileTest, WriteThenRead) {
  Env* env = Env::Default();
  const std::string path = testutil::ProcessTempDir() + "/pagefile_test.pages";
  auto writer = PageFileWriter::Create(env, path, 128);
  ASSERT_TRUE(writer.ok());
  std::vector<char> page(128);
  for (int i = 0; i < 5; ++i) {
    std::memset(page.data(), 'a' + i, page.size());
    ASSERT_TRUE((*writer)->Append(page.data()).ok());
  }
  ASSERT_TRUE((*writer)->Finish().ok());

  auto file = PageFile::Open(env, path, 128);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ((*file)->num_pages(), 5u);
  std::vector<char> out(128);
  ASSERT_TRUE((*file)->ReadPage(3, out.data()).ok());
  EXPECT_EQ(out[0], 'd');
  EXPECT_TRUE((*file)->ReadPage(5, out.data()).code() ==
              StatusCode::kOutOfRange);
  (void)env->DeleteFile(path);
}

TEST(PageFileTest, RejectsMisalignedFile) {
  Env* env = Env::Default();
  const std::string path = testutil::ProcessTempDir() + "/misaligned.pages";
  auto file = env->OpenWritable(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(Slice("short")).ok());
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_TRUE(PageFile::Open(env, path, 128).status().IsCorruption());
  (void)env->DeleteFile(path);
}

class AsyncIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = Env::Default();
    path_ = testutil::ProcessTempDir() + "/async_io_test.pages";
    auto writer = PageFileWriter::Create(env_, path_, 128);
    ASSERT_TRUE(writer.ok());
    std::vector<char> page(128);
    for (int i = 0; i < 16; ++i) {
      std::memset(page.data(), i, page.size());
      ASSERT_TRUE((*writer)->Append(page.data()).ok());
    }
    ASSERT_TRUE((*writer)->Finish().ok());
    auto file = PageFile::Open(env_, path_, 128);
    ASSERT_TRUE(file.ok());
    file_ = std::move(file.value());
  }
  void TearDown() override { (void)env_->DeleteFile(path_); }

  Env* env_;
  std::string path_;
  std::unique_ptr<PageFile> file_;
};

TEST_F(AsyncIoTest, CompletionCallbackRunsOnDrainer) {
  AsyncIoEngine engine(2);
  BufferPool pool(128, 16);
  CompletionQueue queue;
  CompletionGroup group;
  std::atomic<int> verified{0};
  for (uint32_t pid = 0; pid < 16; ++pid) {
    auto frame = pool.Fetch(pid);
    ASSERT_TRUE(frame.ok());
    group.Add();
    ReadRequest req;
    req.file = file_.get();
    req.first_pid = pid;
    req.page_count = 1;
    req.frames = {frame->frame};
    req.completion_queue = &queue;
    Frame* f = frame->frame;
    req.callback = [&, pid, f](const Status& s) {
      // EXPECT (not ASSERT): an early return here would skip Done() and
      // hang the drain loop below instead of failing the test.
      EXPECT_TRUE(s.ok()) << s.ToString();
      if (s.ok()) {
        EXPECT_EQ(static_cast<unsigned char>(f->data[0]), pid);
        verified.fetch_add(1);
      }
      group.Done();
    };
    engine.Submit(std::move(req));
  }
  while (!group.Finished()) {
    if (auto task = queue.PopFor(1000)) (*task)();
  }
  EXPECT_EQ(verified.load(), 16);
  EXPECT_EQ(engine.stats().pages_read.load(), 16u);
}

TEST_F(AsyncIoTest, CallbackCanChainSubmissions) {
  // Mirrors Algorithm 9: each completion submits the next request.
  AsyncIoEngine engine(1);
  BufferPool pool(128, 4);
  CompletionQueue queue;
  CompletionGroup group;
  std::atomic<uint32_t> next{1};
  std::atomic<int> completed{0};

  std::function<void(uint32_t)> submit = [&](uint32_t pid) {
    auto frame = pool.Fetch(pid);
    ASSERT_TRUE(frame.ok());
    ReadRequest req;
    req.file = file_.get();
    req.first_pid = pid;
    req.page_count = 1;
    req.frames = {frame->frame};
    req.completion_queue = &queue;
    Frame* f = frame->frame;
    req.callback = [&, f](const Status& s) {
      EXPECT_TRUE(s.ok()) << s.ToString();
      pool.Unpin({&f, 1});
      completed.fetch_add(1);
      const uint32_t n = next.fetch_add(1);
      if (n < 8) {
        group.Add();
        submit(n);
      }
      group.Done();
    };
    engine.Submit(std::move(req));
  };
  group.Add();
  submit(0);
  while (!group.Finished()) {
    if (auto task = queue.PopFor(1000)) (*task)();
  }
  EXPECT_EQ(completed.load(), 8);
}

TEST_F(AsyncIoTest, ReportsReadErrors) {
  FaultInjectingEnv fenv(env_, testutil::EveryReadFails());
  auto file = PageFile::Open(&fenv, path_, 128);
  ASSERT_TRUE(file.ok());
  AsyncIoEngine engine(1);
  BufferPool pool(128, 2);
  CompletionQueue queue;
  CompletionGroup group;
  Status seen;
  auto frame = pool.Fetch(0);
  group.Add();
  ReadRequest req;
  req.file = file->get();
  req.first_pid = 0;
  req.page_count = 1;
  req.frames = {frame->frame};
  req.completion_queue = &queue;
  req.callback = [&](const Status& s) {
    seen = s;
    group.Done();
  };
  engine.Submit(std::move(req));
  while (!group.Finished()) {
    if (auto task = queue.PopFor(1000)) (*task)();
  }
  EXPECT_TRUE(seen.IsIOError());
  EXPECT_EQ(engine.stats().read_errors.load(), 1u);
}

// ---- Multi-page requests: one device read per run ----

constexpr uint32_t kRunPageSize = 256;

/// Writes `count` valid page images (page i holds vertex i with the one
/// neighbour i + 1) to a fresh file and returns its path.
std::string WriteValidPages(const std::string& name, uint32_t count) {
  const std::string path = testutil::ProcessTempDir() + "/" + name;
  auto writer = PageFileWriter::Create(Env::Default(), path, kRunPageSize);
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  std::vector<char> page(kRunPageSize);
  for (uint32_t pid = 0; pid < count; ++pid) {
    std::fill(page.begin(), page.end(), 0);
    PageBuilder builder(page.data(), kRunPageSize, pid);
    const VertexId neighbour = pid + 1;
    builder.AddSegment(pid, 1, 0, std::span<const VertexId>(&neighbour, 1));
    builder.Finish();
    EXPECT_TRUE((*writer)->Append(page.data()).ok());
  }
  EXPECT_TRUE((*writer)->Finish().ok());
  return path;
}

/// Submits pages [first, first + count) as one validated, pool-backed
/// request, drains it, and drops the test's pins. Returns the status the
/// callback saw.
Status ReadRunThroughPool(AsyncIoEngine* engine, BufferPool* pool,
                          PageFile* file, uint32_t first, uint32_t count) {
  CompletionQueue queue;
  ReadRequest req;
  req.file = file;
  req.first_pid = first;
  req.page_count = count;
  for (uint32_t pid = first; pid < first + count; ++pid) {
    auto fetch = pool->Fetch(pid);
    EXPECT_TRUE(fetch.ok() &&
                fetch->outcome == BufferPool::FetchOutcome::kMiss);
    req.frames.push_back(fetch->frame);
  }
  const std::vector<Frame*> frames = req.frames;
  req.completion_queue = &queue;
  req.pool = pool;
  req.validate = true;
  Status seen = Status::Internal("callback never ran");
  bool ran = false;
  req.callback = [&](const Status& s) {
    seen = s;
    ran = true;
  };
  engine->Submit(std::move(req));
  while (!ran) {
    if (auto task = queue.PopFor(1000000)) (*task)();
  }
  pool->Unpin(frames);
  return seen;
}

/// How a later Fetch sees `pid`: kHit once published valid, kMiss once
/// published failed (the page left the table). Resolves and unpins.
BufferPool::FetchOutcome Published(BufferPool* pool, uint32_t pid) {
  auto fetch = pool->Fetch(pid);
  EXPECT_TRUE(fetch.ok());
  if (fetch->outcome == BufferPool::FetchOutcome::kMiss) {
    pool->MarkFailed({&fetch->frame, 1});
  }
  pool->Unpin({&fetch->frame, 1});
  return fetch->outcome;
}

/// The pages of [0, count) that `plan` tears, from one single-page read
/// each through a fresh env: decisions depend only on plan, path and
/// offset, so a second env with the same plan tears the same pages.
std::vector<uint32_t> TornPages(const FaultPlan& plan,
                                const std::string& path, uint32_t count) {
  FaultInjectingEnv env(Env::Default(), plan);
  auto file = PageFile::Open(&env, path, kRunPageSize);
  EXPECT_TRUE(file.ok());
  std::vector<char> page(kRunPageSize);
  std::vector<uint32_t> torn;
  for (uint32_t pid = 0; pid < count; ++pid) {
    EXPECT_TRUE((*file)->ReadPage(pid, page.data()).ok());
    if (!PageView(page.data(), kRunPageSize).Validate(pid).ok()) {
      torn.push_back(pid);
    }
  }
  return torn;
}

/// The first seeded plan ("seed=N,torn_read_p=0.25,transient=T") that
/// tears exactly page 2 of pages 0..4: an inner page of a 5-page run.
FaultPlan PlanTearingOnlyPage2(const std::string& path, uint32_t transient) {
  for (uint64_t seed = 1; seed < 1000; ++seed) {
    auto plan = FaultPlan::Parse("seed=" + std::to_string(seed) +
                                 ",torn_read_p=0.25,transient=" +
                                 std::to_string(transient));
    EXPECT_TRUE(plan.ok());
    if (TornPages(*plan, path, 5) == std::vector<uint32_t>{2}) return *plan;
  }
  ADD_FAILURE() << "no seed tears exactly page 2";
  return FaultPlan();
}

TEST_F(AsyncIoTest, MultiPageRequestIsOneDeviceReadAndValidatesEveryPage) {
  const std::string path = WriteValidPages("run_one_read.pages", 8);
  ThrottledEnv throttled(Env::Default(), 0);
  auto file = PageFile::Open(&throttled, path, kRunPageSize);
  ASSERT_TRUE(file.ok());
  throttled.stats().Reset();
  AsyncIoEngine engine(1);
  BufferPool pool(kRunPageSize, 8);
  const Status s = ReadRunThroughPool(&engine, &pool, file->get(), 3, 5);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(throttled.stats().reads.load(), 1u);
  EXPECT_EQ(throttled.stats().read_bytes.load(), 5u * kRunPageSize);
  EXPECT_EQ(engine.stats().requests.load(), 1u);
  EXPECT_EQ(engine.stats().pages_read.load(), 5u);
  EXPECT_EQ(engine.stats().retries.load(), 0u);
  for (uint32_t pid = 3; pid < 8; ++pid) {
    auto fetch = pool.Fetch(pid);
    ASSERT_TRUE(fetch.ok());
    EXPECT_EQ(fetch->outcome, BufferPool::FetchOutcome::kHit);
    EXPECT_TRUE(PageView(fetch->frame->data, kRunPageSize).Validate(pid).ok());
    pool.Unpin({&fetch->frame, 1});
  }
  (void)env_->DeleteFile(path);
}

TEST_F(AsyncIoTest, TornInnerPageIsRereadAlone) {
  const std::string path = WriteValidPages("run_torn_once.pages", 5);
  const FaultPlan plan = PlanTearingOnlyPage2(path, /*transient=*/1);
  ThrottledEnv throttled(Env::Default(), 0);
  FaultInjectingEnv fenv(&throttled, plan);
  auto file = PageFile::Open(&fenv, path, kRunPageSize);
  ASSERT_TRUE(file.ok());
  AsyncIoEngine engine(1);
  BufferPool pool(kRunPageSize, 8);
  const Status s = ReadRunThroughPool(&engine, &pool, file->get(), 0, 5);
  EXPECT_TRUE(s.ok()) << s.ToString() << " under " << plan.ToString();
  // The run's read, then page 2 alone; its reread is the page's first
  // attempt, so nothing counts as a retry.
  EXPECT_EQ(throttled.stats().reads.load(), 2u);
  EXPECT_EQ(fenv.stats().injected_torn_reads.load(), 1u);
  EXPECT_EQ(engine.stats().retries.load(), 0u);
  EXPECT_EQ(engine.stats().pages_read.load(), 5u);
  for (uint32_t pid = 0; pid < 5; ++pid) {
    EXPECT_EQ(Published(&pool, pid), BufferPool::FetchOutcome::kHit)
        << "page " << pid;
  }
  (void)env_->DeleteFile(path);
}

TEST_F(AsyncIoTest, CorruptInnerPageFailsItAndTheRestOfTheRun) {
  const std::string path = WriteValidPages("run_torn_always.pages", 5);
  const FaultPlan plan = PlanTearingOnlyPage2(path, /*transient=*/0);
  ThrottledEnv throttled(Env::Default(), 0);
  FaultInjectingEnv fenv(&throttled, plan);
  auto file = PageFile::Open(&fenv, path, kRunPageSize);
  ASSERT_TRUE(file.ok());
  IoRetryPolicy retry;
  retry.max_attempts = 2;
  retry.backoff_base_micros = 20;
  AsyncIoEngine engine(1, retry);
  BufferPool pool(kRunPageSize, 8);
  const Status s = ReadRunThroughPool(&engine, &pool, file->get(), 0, 5);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString() << " under "
                                << plan.ToString();
  // The run's read, then page 2's two attempts; pages 3-4 are never
  // reread once page 2 gives up.
  EXPECT_EQ(throttled.stats().reads.load(), 3u);
  EXPECT_EQ(engine.stats().pages_read.load(), 2u);
  EXPECT_EQ(engine.stats().giveups.load(), 1u);
  for (uint32_t pid = 0; pid < 5; ++pid) {
    EXPECT_EQ(Published(&pool, pid), pid < 2
                                         ? BufferPool::FetchOutcome::kHit
                                         : BufferPool::FetchOutcome::kMiss)
        << "page " << pid;
  }
  (void)env_->DeleteFile(path);
}

TEST(GraphStoreWriterTest, GapsBecomeEmptyRecords) {
  const std::string base = testutil::ProcessTempDir() + "/writer_gaps";
  GraphStoreOptions options;
  options.page_size = 256;
  auto writer = GraphStoreWriter::Create(Env::Default(), base, options);
  ASSERT_TRUE(writer.ok());
  const VertexId n2[] = {0, 7};
  ASSERT_TRUE((*writer)->AddRecord(2, std::span<const VertexId>(n2)).ok());
  const VertexId n7[] = {2};
  ASSERT_TRUE((*writer)->AddRecord(7, std::span<const VertexId>(n7)).ok());
  ASSERT_TRUE((*writer)->Finish().ok());

  auto store = GraphStore::Open(Env::Default(), base);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->num_vertices(), 8u);
  std::vector<size_t> degrees(8, 99);
  ASSERT_TRUE(ScanRecords(**store, 0, (*store)->num_pages() - 1,
                          [&](VertexId v, const AdjacencyRef& adj) {
                            degrees[v] = adj.all.size();
                          })
                  .ok());
  EXPECT_EQ(degrees, (std::vector<size_t>{0, 0, 2, 0, 0, 0, 0, 1}));
}

TEST(GraphStoreWriterTest, RejectsOutOfOrderRecords) {
  const std::string base = testutil::ProcessTempDir() + "/writer_order";
  auto writer = GraphStoreWriter::Create(Env::Default(), base, {});
  ASSERT_TRUE(writer.ok());
  const VertexId nbrs[] = {1};
  ASSERT_TRUE(
      (*writer)->AddRecord(5, std::span<const VertexId>(nbrs)).ok());
  EXPECT_TRUE((*writer)
                  ->AddRecord(3, std::span<const VertexId>(nbrs))
                  .IsInvalidArgument());
  ASSERT_TRUE((*writer)->Finish().ok());
}

TEST(GraphStoreWriterTest, FinishIsIdempotentAndSealsWriter) {
  const std::string base = testutil::ProcessTempDir() + "/writer_finish";
  auto writer = GraphStoreWriter::Create(Env::Default(), base, {});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  EXPECT_TRUE((*writer)->Finish().ok());  // idempotent
  const VertexId nbrs[] = {1};
  EXPECT_TRUE((*writer)
                  ->AddRecord(0, std::span<const VertexId>(nbrs))
                  .IsInvalidArgument());
}

TEST(GraphStoreWriterTest, RejectsTinyPageSize) {
  GraphStoreOptions options;
  options.page_size = 8;
  EXPECT_FALSE(GraphStoreWriter::Create(Env::Default(),
                                        testutil::ProcessTempDir() + "/writer_tiny",
                                        options)
                   .ok());
}

TEST(GraphStoreTest, RoundtripSmallGraph) {
  CSRGraph g = GraphBuilder::FromEdges(
      {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}});
  auto store = testutil::MakeStore(g, Env::Default(), "roundtrip");
  EXPECT_EQ(store->num_vertices(), 5u);
  EXPECT_EQ(store->num_directed_edges(), 10u);

  // Scan back and compare adjacency lists.
  std::vector<std::vector<VertexId>> lists(5);
  ASSERT_TRUE(ScanRecords(*store, 0, store->num_pages() - 1,
                          [&](VertexId v, const AdjacencyRef& adj) {
                            lists[v].assign(adj.all.begin(), adj.all.end());
                          })
                  .ok());
  for (VertexId v = 0; v < 5; ++v) {
    auto expected = g.Neighbors(v);
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                           lists[v].begin(), lists[v].end()))
        << "vertex " << v;
  }
}

TEST(GraphStoreTest, SpanningRecords) {
  // One hub with 200 neighbors on 256-byte pages: must span pages.
  GraphBuilder b;
  for (VertexId leaf = 1; leaf <= 200; ++leaf) b.AddEdge(0, leaf);
  CSRGraph g = std::move(b).Build();
  auto store = testutil::MakeStore(g, Env::Default(), "spanning");
  EXPECT_GT(store->MaxRecordPages(), 1u);
  EXPECT_GT(store->LastPageOfVertex(0), store->FirstPageOfVertex(0));

  std::vector<VertexId> hub_list;
  ASSERT_TRUE(ScanRecords(*store, 0, store->num_pages() - 1,
                          [&](VertexId v, const AdjacencyRef& adj) {
                            if (v == 0) {
                              hub_list.assign(adj.all.begin(), adj.all.end());
                            }
                          })
                  .ok());
  ASSERT_EQ(hub_list.size(), 200u);
  for (VertexId i = 0; i < 200; ++i) EXPECT_EQ(hub_list[i], i + 1);
}

TEST(GraphStoreTest, PlanIterationCoversAllVertices) {
  CSRGraph g = GenerateErdosRenyi(300, 2000, 17);
  auto store = testutil::MakeStore(g, Env::Default(), "plan");
  const uint32_t m_in = std::max(2u, store->num_pages() / 5);
  VertexId v_start = 0;
  VertexId covered = 0;
  while (v_start < store->num_vertices()) {
    auto plan = store->PlanIteration(v_start, m_in);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(plan->v_lo, v_start);
    EXPECT_GE(plan->v_hi, plan->v_lo);
    EXPECT_LE(plan->num_pages(), m_in);
    covered += plan->v_hi - plan->v_lo + 1;
    v_start = plan->v_hi + 1;
  }
  EXPECT_EQ(covered, store->num_vertices());
}

TEST(GraphStoreTest, PlanFailsWhenRecordTooLarge) {
  GraphBuilder b;
  for (VertexId leaf = 1; leaf <= 500; ++leaf) b.AddEdge(0, leaf);
  CSRGraph g = std::move(b).Build();
  auto store = testutil::MakeStore(g, Env::Default(), "too_large");
  ASSERT_GT(store->MaxRecordPages(), 1u);
  auto plan = store->PlanIteration(0, 1);
  EXPECT_EQ(plan.status().code(), StatusCode::kResourceExhausted);
}

TEST(GraphStoreTest, OpenRejectsMissingMeta) {
  auto result = GraphStore::Open(Env::Default(),
                                 testutil::ProcessTempDir() + "/nonexistent_store");
  EXPECT_FALSE(result.ok());
}

TEST(GraphStoreTest, VertexPageDirectoryConsistent) {
  CSRGraph g = GenerateErdosRenyi(200, 1500, 23);
  auto store = testutil::MakeStore(g, Env::Default(), "directory");
  for (VertexId v = 0; v + 1 < store->num_vertices(); ++v) {
    EXPECT_LE(store->FirstPageOfVertex(v), store->LastPageOfVertex(v));
    EXPECT_LE(store->LastPageOfVertex(v), store->FirstPageOfVertex(v + 1) +
                                              0u);
    EXPECT_GE(store->FirstPageOfVertex(v + 1), store->LastPageOfVertex(v));
  }
}

TEST(RecordScannerTest, PartialRangeSkipsBoundaryRecords) {
  CSRGraph g = GenerateErdosRenyi(100, 800, 31);
  auto store = testutil::MakeStore(g, Env::Default(), "partial_scan");
  ASSERT_GT(store->num_pages(), 2u);
  const uint32_t mid = store->num_pages() / 2;
  std::set<VertexId> seen;
  ASSERT_TRUE(ScanRecords(*store, mid, store->num_pages() - 1,
                          [&](VertexId v, const AdjacencyRef&) {
                            EXPECT_TRUE(seen.insert(v).second);
                          })
                  .ok());
  // Every seen vertex must start at or after page `mid`.
  for (VertexId v : seen) EXPECT_GE(store->FirstPageOfVertex(v), mid);
}

/// A record as RecordDecoder yielded it, copied out of the decoder.
struct DecodedRecord {
  std::vector<VertexId> all;
  uint32_t succ_begin = 0;

  AdjacencyRef Ref() const { return {all, succ_begin}; }
};

/// Feeds pages [lo, hi] of `store` to one RecordDecoder and returns every
/// record it yields, by vertex. A vertex yielded twice fails the test.
std::map<VertexId, DecodedRecord> DecodePages(const GraphStore& store,
                                              uint32_t lo, uint32_t hi) {
  std::map<VertexId, DecodedRecord> records;
  RecordDecoder decoder(store);
  std::vector<char> page(store.page_size());
  for (uint32_t pid = lo; pid <= hi; ++pid) {
    EXPECT_TRUE(store.file()->ReadPage(pid, page.data()).ok());
    const Status s = decoder.Feed(
        page.data(), pid, [&](VertexId v, const AdjacencyRef& adj) {
          DecodedRecord record{{adj.all.begin(), adj.all.end()},
                               adj.succ_begin};
          EXPECT_TRUE(records.emplace(v, std::move(record)).second) << v;
          return Status::OK();
        });
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  return records;
}

TEST(RecordDecoderTest, WholeStoreYieldsEveryRecord) {
  // ER plus a hub whose list spans several 256-byte pages.
  GraphBuilder b;
  const CSRGraph er = GenerateErdosRenyi(120, 900, 5);
  for (VertexId u = 0; u < er.num_vertices(); ++u) {
    for (VertexId w : er.Successors(u)) b.AddEdge(u, w);
  }
  for (VertexId w = 0; w < 120; w += 2) {
    if (w != 61) b.AddEdge(61, w);
  }
  const CSRGraph g = std::move(b).Build();
  auto store = testutil::MakeStore(g, Env::Default(), "decode_full");
  ASSERT_GT(store->LastPageOfVertex(61), store->FirstPageOfVertex(61));
  const auto records = DecodePages(*store, 0, store->num_pages() - 1);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_TRUE(records.contains(v)) << "vertex " << v;
    const AdjacencyRef ref = records.at(v).Ref();
    auto expected = g.Neighbors(v);
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                           ref.all.begin(), ref.all.end()));
    auto expected_succ = g.Successors(v);
    EXPECT_TRUE(std::equal(expected_succ.begin(), expected_succ.end(),
                           ref.succ().begin(), ref.succ().end()));
  }
}

TEST(RecordDecoderTest, MiddlePagesYieldOnlyFullyCoveredRecords) {
  CSRGraph g = GenerateErdosRenyi(120, 900, 5);
  auto store = testutil::MakeStore(g, Env::Default(), "decode_partial");
  ASSERT_GT(store->num_pages(), 3u);
  // Middle pages only.
  const uint32_t lo = 1, hi = store->num_pages() - 2;
  const auto records = DecodePages(*store, lo, hi);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const bool fully_inside = store->FirstPageOfVertex(v) >= lo &&
                              store->LastPageOfVertex(v) <= hi;
    EXPECT_EQ(records.contains(v), fully_inside) << "vertex " << v;
    if (fully_inside) {
      auto expected = g.Neighbors(v);
      const AdjacencyRef ref = records.at(v).Ref();
      EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                             ref.all.begin(), ref.all.end()));
    }
  }
}

/// One segment to lay out on a hand-built page.
struct SegmentSpec {
  VertexId vertex;
  uint32_t total_degree;
  uint32_t offset;
  std::vector<VertexId> ids;
};

/// Feeds hand-built pages, one per inner list, to a decoder for a store
/// of 10 vertices — handing out only `wanted`'s records if given — and
/// returns its status; `yielded` gets every record.
Status DecodeSpecs(const std::vector<std::vector<SegmentSpec>>& pages,
                   std::vector<std::pair<VertexId, DecodedRecord>>* yielded,
                   const std::vector<VertexId>* wanted = nullptr) {
  const auto store = testutil::MakeStore(GraphBuilder::FromEdges({{0, 9}}),
                                         Env::Default(), "decode_specs");
  RecordDecoder decoder = wanted != nullptr
                              ? RecordDecoder(*store, *wanted)
                              : RecordDecoder(*store);
  std::vector<char> page(store->page_size());
  for (uint32_t pid = 0; pid < pages.size(); ++pid) {
    PageBuilder builder(page.data(), store->page_size(), pid);
    for (const SegmentSpec& seg : pages[pid]) {
      builder.AddSegment(seg.vertex, seg.total_degree, seg.offset, seg.ids);
    }
    builder.Finish();
    OPT_RETURN_IF_ERROR(decoder.Feed(
        page.data(), pid, [&](VertexId v, const AdjacencyRef& adj) {
          yielded->push_back(
              {v, DecodedRecord{{adj.all.begin(), adj.all.end()},
                                adj.succ_begin}});
          return Status::OK();
        }));
  }
  return Status::OK();
}

TEST(RecordDecoderTest, ReassemblesChainsAndSkipsALeadingTail) {
  // Page 0 opens with the tail of a record begun before it; vertex 3's
  // list {1, 2, 4, 5} spans pages 0 and 1.
  std::vector<std::pair<VertexId, DecodedRecord>> yielded;
  ASSERT_TRUE(DecodeSpecs({{{2, 5, 3, {7, 8}}, {3, 4, 0, {1, 2}}},
                           {{3, 4, 2, {4, 5}}, {4, 0, 0, {}}}},
                          &yielded)
                  .ok());
  ASSERT_EQ(yielded.size(), 2u);
  EXPECT_EQ(yielded[0].first, 3u);
  EXPECT_EQ(yielded[0].second.all, (std::vector<VertexId>{1, 2, 4, 5}));
  EXPECT_EQ(yielded[0].second.succ_begin, 2u);
  EXPECT_EQ(yielded[1].first, 4u);
  EXPECT_TRUE(yielded[1].second.all.empty());
}

TEST(RecordDecoderTest, WantedListHandsOutOnlyItsRecords) {
  // Vertex 4 spans both pages and lists an id past |V|, 6 is unsorted:
  // neither is wanted, so neither is copied or checked for its ids.
  const std::vector<std::vector<SegmentSpec>> pages = {
      {{3, 2, 0, {1, 5}}, {4, 3, 0, {1, 2}}},
      {{4, 3, 2, {40}}, {5, 1, 0, {3}}, {6, 2, 0, {2, 1}}, {8, 1, 0, {3}}}};
  const std::vector<VertexId> wanted = {3, 5, 7, 8};
  std::vector<std::pair<VertexId, DecodedRecord>> yielded;
  ASSERT_TRUE(DecodeSpecs(pages, &yielded, &wanted).ok());
  ASSERT_EQ(yielded.size(), 3u);
  EXPECT_EQ(yielded[0].first, 3u);
  EXPECT_EQ(yielded[1].first, 5u);
  EXPECT_EQ(yielded[2].first, 8u);
  EXPECT_EQ(yielded[2].second.all, (std::vector<VertexId>{3}));
  // The skipped records' vertex order and chains are still checked.
  yielded.clear();
  EXPECT_TRUE(DecodeSpecs({{{4, 3, 0, {1, 2}}}, {{4, 3, 1, {5}}}}, &yielded,
                          &wanted)
                  .IsCorruption());
  EXPECT_TRUE(DecodeSpecs({{{6, 0, 0, {}}, {4, 0, 0, {}}}}, &yielded, &wanted)
                  .IsCorruption());
  EXPECT_TRUE(yielded.empty());
}

TEST(RecordDecoderTest, EachFaultIsCorruptionNamingPageAndVertex) {
  const struct {
    std::vector<std::vector<SegmentSpec>> pages;
    std::string expect;
  } cases[] = {
      {{{{3, 0, 0, {}}, {2, 0, 0, {}}}},
       "page 0: vertex 2 has a record after vertex 3"},
      {{{{4, 0, 0, {}}}, {{4, 0, 0, {}}}},
       "page 1: vertex 4 has a record after vertex 4"},
      {{{{12, 0, 0, {}}}}, "vertex 12 has a record but the store has 10"},
      {{{{3, 4, 0, {1, 2}}, {4, 0, 0, {}}}},
       "page 0: vertex 3 has an incomplete record (2 of 4 ids)"},
      {{{{3, 4, 0, {1, 2}}}, {{3, 4, 1, {4, 5}}}},
       "page 1: vertex 3 has an incomplete record (2 of 4 ids)"},
      {{{{3, 2, 0, {1, 2, 4}}}}, "vertex 3 has more ids than its degree 2"},
      {{{{3, 3, 0, {1, 2}}}, {{3, 3, 2, {4, 5}}}},
       "page 1: vertex 3 has more ids than its degree 3"},
      {{{{3, 0, 0, {}}, {4, 2, 1, {5}}}},
       "vertex 4 has a segment at offset 1 that continues no record"},
      {{{{3, 2, 0, {1, 11}}}},
       "vertex 3 lists neighbour 11 but the store has 10 vertices"},
      {{{{3, 2, 0, {1, 3}}}}, "vertex 3 lists itself"},
      {{{{3, 2, 0, {2, 1}}}}, "vertex 3 lists predecessor 1 after 2"},
      {{{{3, 2, 0, {5, 4}}}}, "vertex 3 lists successor 4 after 5"},
      {{{{3, 2, 0, {5, 5}}}}, "vertex 3 lists successor 5 after 5"},
      {{{{3, 4, 0, {1, 5}}}, {{3, 4, 2, {4, 6}}}},
       "page 1: vertex 3 lists successor 4 after 5"},
  };
  for (const auto& c : cases) {
    std::vector<std::pair<VertexId, DecodedRecord>> yielded;
    const Status s = DecodeSpecs(c.pages, &yielded);
    EXPECT_TRUE(s.IsCorruption()) << c.expect << ": " << s.ToString();
    EXPECT_NE(s.ToString().find(c.expect), std::string::npos)
        << s.ToString() << " lacks \"" << c.expect << "\"";
  }
}

TEST(ThrottledEnvTest, CountsAndDelays) {
  ThrottledEnv env(Env::Default(), 100);
  CSRGraph g = GraphBuilder::FromEdges({{0, 1}, {1, 2}});
  auto store = testutil::MakeStore(g, &env, "throttled");
  std::vector<char> page(store->page_size());
  Stopwatch watch;
  ASSERT_TRUE(store->file()->ReadPage(0, page.data()).ok());
  EXPECT_GE(watch.ElapsedMicros(), 90);
  EXPECT_GE(env.stats().reads.load(), 1u);
  EXPECT_GT(env.stats().write_bytes.load(), 0u);  // store creation
}

}  // namespace
}  // namespace opt
