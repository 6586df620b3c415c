// Unit tests for the utility substrate.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include <cstdlib>

#include "util/blocking_queue.h"
#include "util/cli.h"
#include "util/crc32.h"
#include "util/histogram.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/slice.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

namespace opt {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IOError("disk unplugged");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(s.ToString(), "IOError: disk unplugged");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCorruption), "Corruption");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotSupported), "NotSupported");
  EXPECT_STREQ(StatusCodeName(StatusCode::kAborted), "Aborted");
}

Status FailingFunction() { return Status::NotFound("nope"); }

Status Propagates() {
  OPT_RETURN_IF_ERROR(FailingFunction());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(Propagates().IsNotFound());
}

Result<int> MakeValue(bool fail) {
  if (fail) return Status::InvalidArgument("bad");
  return 42;
}

Status UseValue(bool fail, int* out) {
  OPT_ASSIGN_OR_RETURN(*out, MakeValue(fail));
  return Status::OK();
}

TEST(ResultTest, ValueAndError) {
  auto good = MakeValue(false);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  auto bad = MakeValue(true);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseValue(false, &out).ok());
  EXPECT_EQ(out, 42);
  EXPECT_TRUE(UseValue(true, &out).IsInvalidArgument());
}

TEST(SliceTest, BasicOperations) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[1], 'e');
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "llo");
  EXPECT_TRUE(Slice("abc") == Slice("abc"));
  EXPECT_TRUE(Slice("abc") != Slice("abd"));
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abcd").compare(Slice("abc")), 0);
}

TEST(RandomTest, DeterministicAcrossInstances) {
  Random64 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformInRange) {
  Random64 rng(123);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Uniform(17), 17u);
}

TEST(RandomTest, DoubleInUnitInterval) {
  Random64 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, BernoulliRoughlyCalibrated) {
  Random64 rng(99);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(BlockingQueueTest, FifoOrder) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_EQ(*q.Pop(), 2);
  EXPECT_EQ(*q.Pop(), 3);
}

TEST(BlockingQueueTest, CloseDrainsThenEnds) {
  BlockingQueue<int> q;
  q.Push(10);
  q.Close();
  EXPECT_FALSE(q.Push(11));
  EXPECT_EQ(*q.Pop(), 10);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BlockingQueueTest, TryPopNonBlocking) {
  BlockingQueue<int> q;
  EXPECT_FALSE(q.TryPop().has_value());
  q.Push(5);
  EXPECT_EQ(*q.TryPop(), 5);
}

TEST(BlockingQueueTest, PopForTimesOut) {
  BlockingQueue<int> q;
  Stopwatch watch;
  EXPECT_FALSE(q.PopFor(1000).has_value());
  EXPECT_GE(watch.ElapsedMicros(), 500);
}

TEST(BlockingQueueTest, ConcurrentProducersConsumers) {
  BlockingQueue<int> q;
  constexpr int kPerProducer = 500;
  constexpr int kProducers = 4;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) q.Push(p * kPerProducer + i);
    });
  }
  std::atomic<int> consumed{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      while (q.Pop().has_value()) consumed.fetch_add(1);
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(consumed.load(), kPerProducer * kProducers);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> sum{0};
  for (int i = 1; i <= 100; ++i) {
    pool.Submit([&sum, i] { sum.fetch_add(i); });
  }
  pool.Wait();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPoolTest, WaitOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(0, 1000, 4, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  ParallelFor(5, 5, 4, [&](size_t) { FAIL(); });
  ParallelFor(7, 3, 4, [&](size_t) { FAIL(); });
}

TEST(ParallelForTest, SingleThreadInline) {
  std::vector<int> order;
  ParallelFor(0, 5, 1, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (uint64_t v : {1, 2, 4, 8, 16}) h.Add(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 16u);
  EXPECT_DOUBLE_EQ(h.Mean(), 31.0 / 5.0);
}

TEST(HistogramTest, MergeAccumulates) {
  Histogram a, b;
  a.Add(10);
  b.Add(20);
  b.Add(30);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.max(), 30u);
}

TEST(HistogramTest, QuantileMonotone) {
  Histogram h;
  for (uint64_t i = 0; i < 1000; ++i) h.Add(i);
  EXPECT_LE(h.Quantile(0.1), h.Quantile(0.5));
  EXPECT_LE(h.Quantile(0.5), h.Quantile(0.99));
}

TEST(HistogramSnapshotTest, EmptySnapshotReportsZeros) {
  const HistogramSnapshot s = Histogram().Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.P99(), 0.0);
}

TEST(HistogramSnapshotTest, SingleSampleQuantilesClampToTheValue) {
  Histogram h;
  h.Add(1000);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.min, 1000u);
  EXPECT_EQ(s.max, 1000u);
  // Every quantile of a one-sample distribution is that sample; the
  // within-bucket interpolation must not leak bucket boundaries.
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1000.0);
  EXPECT_DOUBLE_EQ(s.P50(), 1000.0);
  EXPECT_DOUBLE_EQ(s.P99(), 1000.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 1000.0);
}

TEST(HistogramSnapshotTest, SingleSampleEveryQuantileIsTheSample) {
  Histogram h;
  h.Add(7);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_DOUBLE_EQ(s.P50(), 7.0);
  EXPECT_DOUBLE_EQ(s.P95(), 7.0);
  EXPECT_DOUBLE_EQ(s.P99(), 7.0);
}

TEST(HistogramSnapshotTest, TwoSamplesQuantilesPickRealSamples) {
  Histogram h;
  h.Add(10);
  h.Add(1000);
  const HistogramSnapshot s = h.Snapshot();
  // Nearest-rank: p50 is the 1st of 2 samples, p95/p99 the 2nd. The old
  // fractional-target interpolation reported ~973 for p95 (90% of the
  // way through the wrong bucket) — a number that matches no sample.
  EXPECT_DOUBLE_EQ(s.P50(), 10.0);
  EXPECT_DOUBLE_EQ(s.P95(), 1000.0);
  EXPECT_DOUBLE_EQ(s.P99(), 1000.0);
}

TEST(HistogramSnapshotTest, TenSamplesQuantilesInterpolateMidBuckets) {
  Histogram h;
  for (uint64_t v = 10; v <= 100; v += 10) h.Add(v);
  const HistogramSnapshot s = h.Snapshot();
  // Rank 5 of 10 lands in bucket [32,64) (holding 40,50,60) behind 3
  // earlier samples: interpolate 2/3 of the way through the bucket.
  EXPECT_DOUBLE_EQ(s.P50(), 32.0 + (2.0 / 3.0) * 32.0);
  // Ranks ceil(9.5)=10 and ceil(9.9)=10 are the largest sample: exact.
  EXPECT_DOUBLE_EQ(s.P95(), 100.0);
  EXPECT_DOUBLE_EQ(s.P99(), 100.0);
}

TEST(HistogramSnapshotTest, OverflowBucketStaysWithinMinMax) {
  Histogram h;
  h.Add(~0ull);  // lands in the overflow bucket (bucket 63)
  h.Add(1ull << 62);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 2u);
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    const double value = s.Quantile(q);
    EXPECT_GE(value, static_cast<double>(s.min)) << "q=" << q;
    EXPECT_LE(value, static_cast<double>(s.max)) << "q=" << q;
  }
}

TEST(HistogramSnapshotTest, MergeMatchesDirectAccumulation) {
  Histogram a, b, direct;
  for (uint64_t v : {1, 5, 9, 100}) {
    a.Add(v);
    direct.Add(v);
  }
  for (uint64_t v : {0, 2, 7000, 123456}) {
    b.Add(v);
    direct.Add(v);
  }
  HistogramSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  const HistogramSnapshot expected = direct.Snapshot();
  EXPECT_EQ(merged.count, expected.count);
  EXPECT_EQ(merged.sum, expected.sum);
  EXPECT_EQ(merged.min, expected.min);
  EXPECT_EQ(merged.max, expected.max);
  EXPECT_EQ(merged.buckets, expected.buckets);
  EXPECT_DOUBLE_EQ(merged.P95(), expected.P95());
}

TEST(HistogramSnapshotTest, MergeWithEmptyIsIdentityEitherWay) {
  Histogram h;
  h.Add(42);
  h.Add(7);
  const HistogramSnapshot original = h.Snapshot();

  HistogramSnapshot merged = h.Snapshot();
  merged.Merge(HistogramSnapshot());  // empty other: no-op
  EXPECT_EQ(merged.count, original.count);
  EXPECT_EQ(merged.min, original.min);
  EXPECT_EQ(merged.max, original.max);

  HistogramSnapshot empty;  // empty self: adopts other's min/max
  empty.Merge(original);
  EXPECT_EQ(empty.count, original.count);
  EXPECT_EQ(empty.min, 7u);
  EXPECT_EQ(empty.max, 42u);
}

// Regression: Reset() must publish a whole fresh histogram in one swap
// under the lock. An earlier field-by-field clear let a concurrent
// Snapshot() pair the old state's count with the new state's zero sum
// (or vice versa), producing torn snapshots like count>0 with sum==0.
// Recording a single constant makes tearing detectable exactly:
// every consistent snapshot satisfies sum == kValue * count, min/max
// are kValue whenever count > 0, and an empty snapshot is all zeros.
TEST(HistogramMetricTest, ResetNeverTearsConcurrentSnapshots) {
  constexpr uint64_t kValue = 37;
  constexpr int kRounds = 20000;
  HistogramMetric metric;
  std::atomic<bool> stop{false};
  std::atomic<int> tears{0};

  std::thread recorder([&] {
    while (!stop.load(std::memory_order_relaxed)) metric.Record(kValue);
  });
  std::thread resetter([&] {
    while (!stop.load(std::memory_order_relaxed)) metric.Reset();
  });

  for (int i = 0; i < kRounds; ++i) {
    const HistogramSnapshot s = metric.Snapshot();
    if (s.sum != kValue * s.count) ++tears;
    if (s.count == 0 && (s.min != 0 || s.max != 0)) ++tears;
    if (s.count > 0 && (s.min != kValue || s.max != kValue)) ++tears;
  }
  stop.store(true, std::memory_order_relaxed);
  recorder.join();
  resetter.join();

  EXPECT_EQ(tears.load(), 0)
      << "Snapshot observed a half-reset histogram state";
}

TEST(LoggingTest, InitLogLevelFromEnvParsesNamesAndNumbers) {
  const LogLevel original = GetLogLevel();
  ::setenv("OPT_LOG_LEVEL", "error", 1);
  InitLogLevelFromEnv();
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  ::setenv("OPT_LOG_LEVEL", "DEBUG", 1);  // case-insensitive
  InitLogLevelFromEnv();
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
  ::setenv("OPT_LOG_LEVEL", "2", 1);  // numeric form
  InitLogLevelFromEnv();
  EXPECT_EQ(GetLogLevel(), LogLevel::kWarn);

  SetLogLevel(LogLevel::kInfo);
  ::setenv("OPT_LOG_LEVEL", "bogus", 1);  // unparsable: level untouched
  InitLogLevelFromEnv();
  EXPECT_EQ(GetLogLevel(), LogLevel::kInfo);
  ::unsetenv("OPT_LOG_LEVEL");  // unset: level untouched
  InitLogLevelFromEnv();
  EXPECT_EQ(GetLogLevel(), LogLevel::kInfo);
  SetLogLevel(original);
}

TEST(Crc32Test, KnownVector) {
  // CRC-32C("123456789") = 0xE3069283.
  EXPECT_EQ(Crc32c(0, "123456789", 9), 0xE3069283u);
}

TEST(Crc32Test, DetectsBitFlip) {
  char data[64];
  for (int i = 0; i < 64; ++i) data[i] = static_cast<char>(i * 7);
  const uint32_t before = Crc32c(0, data, sizeof(data));
  data[33] ^= 0x10;
  EXPECT_NE(before, Crc32c(0, data, sizeof(data)));
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const char* s = "incremental-checksum-data-0123456789";
  const size_t n = 36;
  const uint32_t one_shot = Crc32c(0, s, n);
  uint32_t crc = Crc32c(0, s, 10);
  // Note: our Crc32c chains by passing the previous value.
  crc = Crc32c(crc, s + 10, n - 10);
  EXPECT_EQ(crc, one_shot);
}

TEST(Crc32Test, HardwareMatchesPortableOnRandomBuffers) {
  // The SSE4.2 path must agree with slicing-by-8 (the oracle) at every
  // length, start alignment and chaining split.
  if (!Crc32cHardwareSupported()) GTEST_SKIP() << "no SSE4.2 on this CPU";
  constexpr size_t kMaxLen = 9000;
  Random64 rng(0xC3C32);
  std::vector<unsigned char> buf(kMaxLen + 8);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.Next());
  for (size_t align = 0; align < 8; ++align) {
    const unsigned char* p = buf.data() + align;
    for (size_t n = 0; n <= kMaxLen; ++n) {
      const uint32_t seed = static_cast<uint32_t>(rng.Next());
      ASSERT_EQ(Crc32cHardware(seed, p, n), Crc32cPortable(seed, p, n))
          << "n=" << n << " align=" << align;
    }
  }
  for (int trial = 0; trial < 1000; ++trial) {
    const size_t n = rng.Uniform(kMaxLen + 1);
    const size_t split = rng.Uniform(n + 1);
    const unsigned char* p = buf.data() + rng.Uniform(8);
    const uint32_t chained =
        Crc32cHardware(Crc32cHardware(0, p, split), p + split, n - split);
    ASSERT_EQ(chained, Crc32cPortable(0, p, n))
        << "n=" << n << " split=" << split;
  }
  EXPECT_EQ(Crc32cHardware(0, "123456789", 9), 0xE3069283u);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "22"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("| name      | value |"), std::string::npos);
  EXPECT_NE(out.find("| long-name | 22    |"), std::string::npos);
}

TEST(TablePrinterTest, Formatters) {
  EXPECT_EQ(TablePrinter::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Fmt(static_cast<uint64_t>(42)), "42");
  EXPECT_EQ(TablePrinter::Fmt(static_cast<int64_t>(-7)), "-7");
}

TEST(CommandLineTest, ParsesFlagForms) {
  // "--beta 2" consumes the next token as its value; a flag followed by
  // another flag (or end of line) is boolean.
  const char* argv[] = {"prog", "--alpha=1", "--beta",      "2",
                        "pos1", "--gamma",   "--delta=x y"};
  auto cl = CommandLine::Parse(7, const_cast<char**>(argv));
  ASSERT_TRUE(cl.ok());
  EXPECT_EQ(cl->GetInt("alpha", 0), 1);
  EXPECT_EQ(cl->GetInt("beta", 0), 2);
  EXPECT_TRUE(cl->GetBool("gamma", false));
  EXPECT_EQ(cl->GetString("delta"), "x y");
  ASSERT_EQ(cl->positional().size(), 1u);
  EXPECT_EQ(cl->positional()[0], "pos1");
}

TEST(CommandLineTest, DefaultsWhenMissing) {
  const char* argv[] = {"prog"};
  auto cl = CommandLine::Parse(1, const_cast<char**>(argv));
  ASSERT_TRUE(cl.ok());
  EXPECT_EQ(cl->GetInt("missing", 99), 99);
  EXPECT_EQ(cl->GetDouble("missing", 2.5), 2.5);
  EXPECT_FALSE(cl->Has("missing"));
}

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch w;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(w.ElapsedSeconds(), 0.005);
}

TEST(TimeAccumulatorTest, AccumulatesIntervals) {
  TimeAccumulator acc;
  acc.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  acc.Stop();
  const double first = acc.TotalSeconds();
  EXPECT_GT(first, 0.0);
  acc.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  acc.Stop();
  EXPECT_GT(acc.TotalSeconds(), first);
}

}  // namespace
}  // namespace opt
