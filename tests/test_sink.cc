// Tests for the listing sinks: the file sink (ListingSink, asynchronous
// and synchronous) and the service's LIST wire sink (WireListSink), both
// built on the per-thread NestedRecordEncoder. The ASan+UBSan and TSan
// jobs run the concurrent-emitter cases like every other suite.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <thread>
#include <tuple>
#include <vector>

#include "baselines/inmemory.h"
#include "core/iterator_model.h"
#include "core/listing_reader.h"
#include "core/opt_runner.h"
#include "core/triangle_sink.h"
#include "gen/erdos_renyi.h"
#include "service/wire.h"
#include "service/wire_list_sink.h"
#include "test_helpers.h"
#include "util/random.h"

namespace opt {
namespace {

/// One nested record <u, v, {ws}>.
struct Record {
  VertexId u = 0;
  VertexId v = 0;
  std::vector<VertexId> ws;

  bool operator<(const Record& o) const {
    return std::tie(u, v, ws) < std::tie(o.u, o.v, o.ws);
  }
  bool operator==(const Record& o) const {
    return u == o.u && v == o.v && ws == o.ws;
  }
};

/// Records as a sink receives them, in the order they were read back.
struct Readback {
  std::vector<Record> records;

  void Add(VertexId u, VertexId v, std::span<const VertexId> ws) {
    records.push_back({u, v, {ws.begin(), ws.end()}});
  }

  std::vector<Record> Sorted() const {
    std::vector<Record> out = records;
    std::sort(out.begin(), out.end());
    return out;
  }

  /// A thread's own records keep their emit order: thread t emits
  /// u = t with strictly increasing v.
  bool PerThreadOrderKept() const {
    std::map<VertexId, VertexId> last_v;
    for (const Record& r : records) {
      auto it = last_v.find(r.u);
      if (it != last_v.end() && r.v <= it->second) return false;
      last_v[r.u] = r.v;
    }
    return true;
  }
};

/// The records `threads` emitters send: thread t emits `per_thread`
/// records with u = t, v = 1000 + i and 1..8 sorted neighbors above v.
std::vector<std::vector<Record>> RandomRecords(uint32_t threads,
                                               uint32_t per_thread,
                                               uint64_t seed) {
  Random64 rng(seed);
  std::vector<std::vector<Record>> out(threads);
  for (uint32_t t = 0; t < threads; ++t) {
    for (uint32_t i = 0; i < per_thread; ++i) {
      Record r;
      r.u = t;
      r.v = 1000 + i;
      const uint32_t k = 1 + static_cast<uint32_t>(rng.Uniform(8));
      VertexId w = r.v;
      for (uint32_t j = 0; j < k; ++j) {
        w += 1 + static_cast<VertexId>(rng.Uniform(50));
        r.ws.push_back(w);
      }
      out[t].push_back(std::move(r));
    }
  }
  return out;
}

std::vector<Record> Flatten(const std::vector<std::vector<Record>>& per) {
  std::vector<Record> all;
  for (const auto& records : per) {
    all.insert(all.end(), records.begin(), records.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

/// Emits each thread's records from its own thread, all at once.
void EmitConcurrently(TriangleSink* sink,
                      const std::vector<std::vector<Record>>& per_thread) {
  std::vector<std::thread> threads;
  for (const auto& records : per_thread) {
    threads.emplace_back([sink, &records] {
      for (const Record& r : records) sink->Emit(r.u, r.v, r.ws);
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Forwards to Env::Default() and flags any two Appends to one file that
/// overlap in time.
class OverlapDetectingEnv : public Env {
 public:
  Result<std::unique_ptr<RandomAccessFile>> OpenRandomAccess(
      const std::string& path) override {
    return base_->OpenRandomAccess(path);
  }
  Result<std::unique_ptr<WritableFile>> OpenWritable(
      const std::string& path) override {
    auto file = base_->OpenWritable(path);
    if (!file.ok()) return file.status();
    return std::unique_ptr<WritableFile>(
        new File(std::move(file.value()), this));
  }
  Result<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }

  bool overlapped() const { return overlapped_.load(); }

 private:
  class File : public WritableFile {
   public:
    File(std::unique_ptr<WritableFile> base, OverlapDetectingEnv* env)
        : base_(std::move(base)), env_(env) {}
    Status Append(Slice data) override {
      if (env_->in_flight_.fetch_add(1) != 0) env_->overlapped_ = true;
      // Widen the window a concurrent writer would have to hit.
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      Status s = base_->Append(data);
      env_->in_flight_.fetch_sub(1);
      return s;
    }
    Status Sync() override { return base_->Sync(); }
    Status Close() override { return base_->Close(); }

   private:
    std::unique_ptr<WritableFile> base_;
    OverlapDetectingEnv* env_;
  };

  Env* base_ = Env::Default();
  std::atomic<int> in_flight_{0};
  std::atomic<bool> overlapped_{false};
};

TEST(ListingSinkTest, WritesNestedRepresentation) {
  const std::string path = testutil::ProcessTempDir() + "/listing_sink.bin";
  {
    ListingSink sink(Env::Default(), path, /*flush_threshold=*/32);
    const VertexId ws[] = {2, 3};
    sink.Emit(0, 1, ws);
    const VertexId ws2[] = {9};
    sink.Emit(5, 7, ws2);
    ASSERT_TRUE(sink.Finish().ok());
    EXPECT_EQ(sink.triangles_written(), 3u);
    // 2 records: (12 + 8) + (12 + 4) bytes.
    EXPECT_EQ(sink.bytes_written(), 36u);
  }
  auto size = Env::Default()->FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 36u);
  std::remove(path.c_str());
}

TEST(ListingSinkTest, ConcurrentEmittersWriteEveryRecordWhole) {
  constexpr uint32_t kThreads = 8;
  const auto per_thread = RandomRecords(kThreads, 1500, 17);
  const std::vector<Record> expected = Flatten(per_thread);
  uint64_t expected_bytes = 0;
  uint64_t expected_triangles = 0;
  for (const Record& r : expected) {
    expected_bytes += 12 + 4 * r.ws.size();
    expected_triangles += r.ws.size();
  }
  for (bool asynchronous : {true, false}) {
    SCOPED_TRACE(asynchronous ? "async" : "sync");
    const std::string path =
        testutil::ProcessTempDir() + "/listing_concurrent.bin";
    OverlapDetectingEnv env;
    {
      ListingSink sink(&env, path, /*flush_threshold=*/64, asynchronous);
      EmitConcurrently(&sink, per_thread);
      ASSERT_TRUE(sink.Finish().ok());
      EXPECT_EQ(sink.bytes_written(), expected_bytes);
      EXPECT_EQ(sink.triangles_written(), expected_triangles);
    }
    EXPECT_FALSE(env.overlapped()) << "two Appends ran at once";
    Readback got;
    ASSERT_TRUE(ReadListing(Env::Default(), path,
                            [&](VertexId u, VertexId v,
                                std::span<const VertexId> ws) {
                              got.Add(u, v, ws);
                            })
                    .ok());
    EXPECT_TRUE(got.Sorted() == expected);
    EXPECT_TRUE(got.PerThreadOrderKept());
    std::remove(path.c_str());
  }
}

TEST(ListingSinkTest, FinishIsIdempotent) {
  const std::string path = testutil::ProcessTempDir() + "/listing_twice.bin";
  ListingSink sink(Env::Default(), path, /*flush_threshold=*/1 << 20);
  const VertexId ws[] = {4, 6, 8};
  sink.Emit(1, 2, ws);
  ASSERT_TRUE(sink.Finish().ok());
  ASSERT_TRUE(sink.Finish().ok());
  EXPECT_EQ(sink.bytes_written(), 24u);
  EXPECT_EQ(sink.triangles_written(), 3u);
  auto size = Env::Default()->FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 24u);
  std::remove(path.c_str());
}

TEST(ListingSinkTest, EmitAfterFinishIsRejectedAndNotCounted) {
  for (bool asynchronous : {true, false}) {
    SCOPED_TRACE(asynchronous ? "async" : "sync");
    const std::string path = testutil::ProcessTempDir() + "/listing_late.bin";
    ListingSink sink(Env::Default(), path, /*flush_threshold=*/16,
                     asynchronous);
    const VertexId ws[] = {4, 6};
    sink.Emit(1, 2, ws);
    ASSERT_TRUE(sink.Finish().ok());
    // A threshold-crossing record too: neither may reach the file.
    const VertexId late[] = {7, 8, 9, 10, 11};
    sink.Emit(3, 5, late);
    sink.Emit(3, 6, ws);
    const Status s = sink.Finish();
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
    EXPECT_EQ(sink.triangles_written(), 2u);
    EXPECT_EQ(sink.bytes_written(), 20u);
    auto size = Env::Default()->FileSize(path);
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(*size, 20u);
    std::remove(path.c_str());
  }
}

TEST(WireListSinkTest, ConcurrentEmittersStreamEveryRecordOverASocket) {
  constexpr uint32_t kThreads = 8;
  // Enough records that each thread sends several full batches.
  const auto per_thread = RandomRecords(kThreads, 4000, 23);
  const std::vector<Record> expected = Flatten(per_thread);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Readback got;
  size_t batches = 0;
  Status read_status;
  std::thread reader([&] {
    for (;;) {
      WireMessage message;
      Status s = ReadMessage(fds[1], &message);
      if (s.IsNotFound()) return;  // writer closed: stream complete
      if (!s.ok()) {
        read_status = s;
        return;
      }
      if (message.type != MessageType::kListBatch) {
        read_status = Status::Corruption("unexpected frame type");
        return;
      }
      ListBatch batch;
      s = DecodeListBatch(message.payload, &batch);
      if (!s.ok()) {
        read_status = s;
        return;
      }
      ++batches;
      for (const ListBatch::Record& r : batch.records) {
        got.Add(r.u, r.v, r.ws);
      }
    }
  });
  {
    WireListSink sink(fds[0]);
    EmitConcurrently(&sink, per_thread);
    EXPECT_TRUE(sink.Finish().ok());
    EXPECT_TRUE(sink.Finish().ok());
  }
  ::close(fds[0]);
  reader.join();
  ::close(fds[1]);
  ASSERT_TRUE(read_status.ok()) << read_status.ToString();
  EXPECT_GT(batches, kThreads);
  EXPECT_TRUE(got.Sorted() == expected);
  EXPECT_TRUE(got.PerThreadOrderKept());
}

TEST(WireListSinkTest, EmitAfterFinishIsRejected) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  WireListSink sink(fds[0]);
  const VertexId ws[] = {4, 6};
  sink.Emit(1, 2, ws);
  ASSERT_TRUE(sink.Finish().ok());
  sink.Emit(1, 3, ws);
  EXPECT_EQ(sink.Finish().code(), StatusCode::kFailedPrecondition);
  ::close(fds[0]);
  WireMessage message;
  ASSERT_TRUE(ReadMessage(fds[1], &message).ok());
  ListBatch batch;
  ASSERT_TRUE(DecodeListBatch(message.payload, &batch).ok());
  ASSERT_EQ(batch.records.size(), 1u);
  EXPECT_EQ(batch.records[0].v, 2u);
  EXPECT_TRUE(ReadMessage(fds[1], &message).IsNotFound());
  ::close(fds[1]);
}

TEST(ListingReaderTest, RoundtripThroughSinkAndReader) {
  const std::string path = testutil::ProcessTempDir() + "/listing_roundtrip.bin";
  CSRGraph g = GenerateErdosRenyi(200, 2000, 31);
  auto expected = testutil::OracleTriangles(g);
  {
    ListingSink sink(Env::Default(), path, /*flush_threshold=*/128);
    EdgeIteratorInMemory(g, &sink);
    ASSERT_TRUE(sink.Finish().ok());
  }
  auto loaded = ReadListingTriangles(Env::Default(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, expected);
  auto count = CountListingTriangles(Env::Default(), path);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, expected.size());
  std::remove(path.c_str());
}

TEST(ListingReaderTest, SynchronousSinkProducesSameListing) {
  const std::string async_path = testutil::ProcessTempDir() + "/listing_async.bin";
  const std::string sync_path = testutil::ProcessTempDir() + "/listing_sync.bin";
  CSRGraph g = GenerateErdosRenyi(150, 1200, 7);
  {
    ListingSink sink(Env::Default(), async_path, 64, /*asynchronous=*/true);
    EdgeIteratorInMemory(g, &sink);
    ASSERT_TRUE(sink.Finish().ok());
  }
  {
    ListingSink sink(Env::Default(), sync_path, 64, /*asynchronous=*/false);
    EdgeIteratorInMemory(g, &sink);
    ASSERT_TRUE(sink.Finish().ok());
  }
  auto a = ReadListingTriangles(Env::Default(), async_path);
  auto b = ReadListingTriangles(Env::Default(), sync_path);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  std::remove(async_path.c_str());
  std::remove(sync_path.c_str());
}

TEST(ListingReaderTest, RejectsTruncatedFile) {
  const std::string path = testutil::ProcessTempDir() + "/listing_truncated.bin";
  {
    auto file = Env::Default()->OpenWritable(path);
    ASSERT_TRUE(file.ok());
    // A record header promising 5 neighbors but delivering none.
    const uint32_t header[3] = {1, 2, 5};
    ASSERT_TRUE((*file)
                    ->Append(Slice(reinterpret_cast<const char*>(header),
                                   sizeof(header)))
                    .ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  auto result = ReadListingTriangles(Env::Default(), path);
  EXPECT_TRUE(result.status().IsCorruption());
  std::remove(path.c_str());
}

TEST(ListingReaderTest, EmptyListing) {
  const std::string path = testutil::ProcessTempDir() + "/listing_empty.bin";
  {
    ListingSink sink(Env::Default(), path);
    ASSERT_TRUE(sink.Finish().ok());
  }
  auto count = CountListingTriangles(Env::Default(), path);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
  std::remove(path.c_str());
}

TEST(OptRunnerTest, ListingSinkIntegration) {
  CSRGraph g = GenerateErdosRenyi(200, 1500, 7);
  auto store = testutil::MakeStore(g, Env::Default(), "opt_listing");
  const std::string out_path = testutil::ProcessTempDir() + "/opt_listing_out.bin";
  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), store->num_pages() / 4);
  options.m_ex = options.m_in;
  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink counter;
  {
    ListingSink listing(Env::Default(), out_path);
    TeeSink tee({&counter, &listing});
    ASSERT_TRUE(runner.Run(&tee, nullptr).ok());
    EXPECT_EQ(listing.triangles_written(), counter.count());
    EXPECT_GT(listing.bytes_written(), 0u);
  }
  std::remove(out_path.c_str());
}

}  // namespace
}  // namespace opt
