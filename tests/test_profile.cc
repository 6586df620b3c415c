// Overlap-profiler and flight-recorder tests: ring wraparound and torn-
// read protection (including under TSan via the tsan preset), role
// sampling, the stall guard, morph accounting, and a profiled
// end-to-end OPT run whose report must be internally consistent.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/opt_runner.h"
#include "gen/erdos_renyi.h"
#include "obs/flight_recorder.h"
#include "obs/overlap_profiler.h"
#include "storage/env.h"
#include "test_helpers.h"
#include "util/metrics.h"

namespace opt {
namespace {

// ---------------------------------------------------------------------
// FlightRecorder

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(1).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(8).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(9).capacity(), 16u);
  EXPECT_EQ(FlightRecorder(256).capacity(), 256u);
}

TEST(FlightRecorder, RecordsInOrderBelowCapacity) {
  FlightRecorder recorder(8);
  recorder.Record(FlightEventType::kFetchHit, 1);
  recorder.Record(FlightEventType::kFetchMiss, 2);
  recorder.Record(FlightEventType::kIoRetry, 3, 1);
  const std::vector<FlightEvent> tail = recorder.Tail();
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].type, FlightEventType::kFetchHit);
  EXPECT_EQ(tail[0].a, 1u);
  EXPECT_EQ(tail[1].type, FlightEventType::kFetchMiss);
  EXPECT_EQ(tail[1].a, 2u);
  EXPECT_EQ(tail[2].type, FlightEventType::kIoRetry);
  EXPECT_EQ(tail[2].a, 3u);
  EXPECT_EQ(tail[2].b, 1u);
  EXPECT_EQ(recorder.total_recorded(), 3u);
  // Timestamps are monotone within a single writer.
  EXPECT_LE(tail[0].t_micros, tail[1].t_micros);
  EXPECT_LE(tail[1].t_micros, tail[2].t_micros);
}

TEST(FlightRecorder, WraparoundKeepsTheMostRecentEvents) {
  FlightRecorder recorder(8);
  for (uint64_t i = 0; i < 20; ++i) {
    recorder.Record(FlightEventType::kFetchHit, i);
  }
  EXPECT_EQ(recorder.total_recorded(), 20u);
  const std::vector<FlightEvent> tail = recorder.Tail();
  ASSERT_EQ(tail.size(), 8u);
  // The ring keeps exactly the last 8 payloads, oldest first.
  for (size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].a, 12 + i) << "index " << i;
  }
}

TEST(FlightRecorder, TailHonorsMaxEvents) {
  FlightRecorder recorder(16);
  for (uint64_t i = 0; i < 10; ++i) {
    recorder.Record(FlightEventType::kFetchMiss, i);
  }
  const std::vector<FlightEvent> tail = recorder.Tail(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].a, 7u);
  EXPECT_EQ(tail[2].a, 9u);
}

TEST(FlightRecorder, ConcurrentWritersNeverProduceTornEvents) {
  // Each event carries a self-consistent (a, b) pair; any torn slot the
  // reader failed to skip would break the invariant. Run readers
  // concurrently with the writers so the seq-validation path is
  // exercised, not just the quiescent one. The tsan preset reruns this
  // under TSan.
  FlightRecorder recorder(64);
  constexpr int kWriters = 4;
  constexpr uint64_t kEventsPerWriter = 5000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const FlightEvent& event : recorder.Tail()) {
        ASSERT_EQ(event.b, event.a ^ 0xabcdef0123456789ull);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder, w] {
      for (uint64_t i = 0; i < kEventsPerWriter; ++i) {
        const uint64_t a = (static_cast<uint64_t>(w) << 32) | i;
        recorder.Record(FlightEventType::kFetchHit, a,
                        a ^ 0xabcdef0123456789ull);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(recorder.total_recorded(), kWriters * kEventsPerWriter);
  const std::vector<FlightEvent> tail = recorder.Tail();
  EXPECT_EQ(tail.size(), recorder.capacity());
  for (const FlightEvent& event : tail) {
    EXPECT_EQ(event.b, event.a ^ 0xabcdef0123456789ull);
  }
}

TEST(FlightRecorder, RenderNamesEveryEventType) {
  std::vector<FlightEvent> events;
  for (uint8_t t = 1; t <= 11; ++t) {
    FlightEvent event;
    event.type = static_cast<FlightEventType>(t);
    event.t_micros = t * 10;
    event.a = t;
    event.b = t;
    events.push_back(event);
  }
  const std::string text = FlightRecorder::Render(events);
  for (uint8_t t = 1; t <= 11; ++t) {
    EXPECT_NE(text.find(FlightEventTypeName(static_cast<FlightEventType>(t))),
              std::string::npos)
        << text;
  }
}

// ---------------------------------------------------------------------
// OverlapProfiler

OverlapProfiler::Options FastOptions() {
  OverlapProfiler::Options options;
  options.period_micros = 200;
  options.trace_counters = false;
  return options;
}

TEST(OverlapProfiler, SamplesRegisteredRoles) {
  OverlapProfiler profiler(FastOptions());
  {
    OverlapProfiler::ThreadScope scope(&profiler, ThreadRole::kInternal);
    OverlapProfiler::SetRole(ThreadRole::kInternal);
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
    while (std::chrono::steady_clock::now() < until) {
      OverlapProfiler::SetWork(/*internal_work=*/true);  // keep fresh
      std::this_thread::yield();
    }
  }
  profiler.Stop();
  const OverlapReport report = profiler.Report();
  EXPECT_GT(report.samples, 0u);
  EXPECT_GT(report.role_samples[static_cast<size_t>(ThreadRole::kInternal)],
            0u);
  EXPECT_GT(report.cpu_active_samples, 0u);
  EXPECT_EQ(report.period_micros, 200u);
}

TEST(OverlapProfiler, MacroOverlapNeedsBothSidesSimultaneously) {
  OverlapProfiler profiler(FastOptions());
  std::atomic<bool> stop{false};
  auto spin = [&stop](OverlapProfiler* p, bool internal) {
    OverlapProfiler::ThreadScope scope(
        p, internal ? ThreadRole::kInternal : ThreadRole::kExternal);
    while (!stop.load(std::memory_order_relaxed)) {
      OverlapProfiler::SetWork(internal);
      std::this_thread::yield();
    }
  };
  std::thread a(spin, &profiler, true);
  std::thread b(spin, &profiler, false);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  stop.store(true, std::memory_order_relaxed);
  a.join();
  b.join();
  profiler.Stop();
  const OverlapReport report = profiler.Report();
  EXPECT_GT(report.samples, 0u);
  EXPECT_GT(report.macro_overlap_samples, 0u);
  EXPECT_LE(report.MacroOverlapFraction(), 1.0);
}

TEST(OverlapProfiler, MicroOverlapSeesTheInflightGauge) {
  // CPU role active while the process-wide in-flight gauge is nonzero
  // must count as micro overlap.
  Gauge* inflight = Metrics().GetGauge("io.inflight_depth");
  inflight->Set(2);
  OverlapProfiler profiler(FastOptions());
  {
    OverlapProfiler::ThreadScope scope(&profiler, ThreadRole::kInternal);
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
    while (std::chrono::steady_clock::now() < until) {
      OverlapProfiler::SetWork(/*internal_work=*/true);
      std::this_thread::yield();
    }
  }
  profiler.Stop();
  inflight->Set(0);
  const OverlapReport report = profiler.Report();
  EXPECT_GT(report.samples, 0u);
  EXPECT_GT(report.micro_overlap_samples, 0u);
  EXPECT_GT(report.io_inflight_samples, 0u);
  EXPECT_LE(report.MicroOverlapFraction(), 1.0);
}

TEST(OverlapProfiler, StallGuardDiscardsStaleSlots) {
  // Publish one role update, then sleep far past stall_periods × period
  // without refreshing: the sampler must tally `stalled` samples instead
  // of crediting the stale role forever.
  OverlapProfiler::Options options = FastOptions();
  options.stall_periods = 10;  // stale after 2 ms
  OverlapProfiler profiler(options);
  {
    OverlapProfiler::ThreadScope scope(&profiler, ThreadRole::kInternal);
    OverlapProfiler::SetRole(ThreadRole::kInternal);
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
  profiler.Stop();
  const OverlapReport report = profiler.Report();
  EXPECT_GT(report.stalled_samples, 0u);
  // The stale slot must not keep counting as live internal work: at
  // most the pre-stall window's worth of samples is credited.
  EXPECT_LT(report.role_samples[static_cast<size_t>(ThreadRole::kInternal)],
            report.samples);
}

TEST(OverlapProfiler, StopRightAfterStartStillHasASample) {
  // A run shorter than one period (a tiny query) still gets a sample:
  // the sampler takes its first one as it starts, and Stop() waits for
  // it instead of the period.
  OverlapProfiler::Options options = FastOptions();
  options.period_micros = 10'000'000;
  const auto start = std::chrono::steady_clock::now();
  OverlapProfiler profiler(options);
  profiler.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_GE(profiler.Report().samples, 1u);
}

TEST(OverlapProfiler, MorphEventsAreCounted) {
  OverlapProfiler profiler(FastOptions());
  profiler.RecordMorph();
  profiler.RecordMorph();
  profiler.RecordMorph();
  profiler.Stop();
  EXPECT_EQ(profiler.Report().morph_events, 3u);
}

TEST(OverlapProfiler, NullProfilerScopesAreNoOps) {
  OverlapProfiler::ThreadScope scope(nullptr, ThreadRole::kInternal);
  OverlapProfiler::SetRole(ThreadRole::kExternal);   // must not crash
  OverlapProfiler::SetWork(/*internal_work=*/false);  // must not crash
}

// ---------------------------------------------------------------------
// Profiled end-to-end run

TEST(ProfiledRun, ReportIsFilledAndInternallyConsistent) {
  CSRGraph g = GenerateErdosRenyi(400, 4000, 1234);
  auto store = testutil::MakeStore(g, Env::Default(), "profiled_run");
  OptOptions options;
  options.m_in = std::max(store->MaxRecordPages(), store->num_pages() / 8);
  options.m_ex = options.m_in;
  options.num_threads = 2;
  options.macro_overlap = true;
  options.thread_morphing = true;
  options.profile = true;
  options.profile_period_micros = 100;
  FlightRecorder recorder(128);
  options.flight = &recorder;

  EdgeIteratorModel model;
  OptRunner runner(store.get(), &model, options);
  CountingSink sink;
  OptRunStats stats;
  Status s = runner.Run(&sink, &stats);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(sink.count(), testutil::OracleCount(g));

  ASSERT_TRUE(stats.profiled);
  const OverlapReport& report = stats.overlap;
  EXPECT_GT(report.samples, 0u);
  EXPECT_LE(report.MicroOverlapFraction(), 1.0);
  EXPECT_LE(report.MacroOverlapFraction(), 1.0);
  EXPECT_LE(report.micro_overlap_samples, report.samples);
  EXPECT_LE(report.macro_overlap_samples, report.samples);
  // The cost model is fitted from this run's measurements.
  EXPECT_GT(report.cost.measured_seconds, 0.0);
  EXPECT_GE(report.cost.c_seconds_per_page, 0.0);
  EXPECT_GT(report.cost.ideal_seconds, 0.0);
  EXPECT_NEAR(report.cost.residual_seconds,
              report.cost.measured_seconds - report.cost.predicted_seconds,
              1e-9);
  // Fetch outcomes were recorded for every page touched.
  EXPECT_GT(recorder.total_recorded(), 0u);

  // An unprofiled run must not fill the report.
  options.profile = false;
  options.flight = nullptr;
  OptRunner plain(store.get(), &model, options);
  CountingSink sink2;
  OptRunStats stats2;
  ASSERT_TRUE(plain.Run(&sink2, &stats2).ok());
  EXPECT_FALSE(stats2.profiled);
}

}  // namespace
}  // namespace opt
