// Table 3: output writing times of triangulation methods (sec). Runs
// OPT_serial, OPT (4 threads), MGT, and CC-Seq in full *listing* mode with the nested
// representation streamed through the asynchronous ListingSink, and
// reports the elapsed-time delta versus counting-only runs — the
// output-writing cost the paper isolates in §5.2.
#include "bench_common.h"

#include "baselines/cc.h"
#include "baselines/mgt.h"
#include "core/iterator_model.h"
#include "core/opt_runner.h"
#include "core/triangle_sink.h"
#include "util/stopwatch.h"

using namespace opt;

namespace {

struct ListingRun {
  double counting_seconds = 0;
  double listing_seconds = 0;
  uint64_t bytes = 0;
  uint64_t triangles = 0;
};

template <typename RunFn>
ListingRun Measure(Env* env, const std::string& out_path, bool async_write,
                   RunFn&& run) {
  ListingRun result;
  {
    CountingSink counter;
    Stopwatch watch;
    run(&counter);
    result.counting_seconds = watch.ElapsedSeconds();
    result.triangles = counter.count();
  }
  {
    // OPT overlaps output writing (async sink); the competitors use the
    // synchronous bulk-write path, exactly as the paper's §5.2 setup.
    ListingSink listing(env, out_path, /*flush_threshold=*/64 << 10,
                        async_write);
    Stopwatch watch;
    run(&listing);
    Status s = listing.Finish();
    if (!s.ok()) std::fprintf(stderr, "%s\n", s.ToString().c_str());
    result.listing_seconds = watch.ElapsedSeconds();
    result.bytes = listing.bytes_written();
  }
  (void)env->DeleteFile(out_path);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  auto ctx = bench::MakeContext(argc, argv);
  IntersectScope kernel_scope(ctx.kernel.value_or(IntersectKernel::kAuto));
  bench::Banner("Table 3",
                "Output writing times (sec): full triangle listing with "
                "the nested representation; delta = listing - counting");

  TablePrinter table({"method", "dataset", "count-only (s)",
                      "with output (s)", "write delta (s)", "output MB"});
  auto specs = PaperDatasets(ctx.scale_shift);
  // LJ/ORKUT/TWITTER/UK as in the paper (YAHOO excluded there too).
  for (size_t d = 0; d < 4; ++d) {
    auto store = MaterializeDataset(specs[d], ctx.get_env(), ctx.work_dir,
                                    bench::kPageSize);
    if (!store.ok()) {
      std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
      return 1;
    }
    const uint32_t buffer = PagesForBufferPercent(**store, 15.0);
    const std::string out = ctx.work_dir + "/triangles.out";

    // OPT_serial.
    {
      OptOptions options;
      ctx.Apply(&options);
      options.m_in = std::max(buffer / 2, (*store)->MaxRecordPages());
      options.m_ex = std::max(1u, buffer / 2);
      options.macro_overlap = false;
      options.thread_morphing = false;
      EdgeIteratorModel model;
      auto run = Measure(ctx.get_env(), out, /*async_write=*/true, [&](TriangleSink* sink) {
        OptRunner runner(store->get(), &model, options);
        Status s = runner.Run(sink, nullptr);
        if (!s.ok()) std::fprintf(stderr, "%s\n", s.ToString().c_str());
      });
      table.AddRow({"OPT_serial", specs[d].paper_name,
                    bench::Secs(run.counting_seconds),
                    bench::Secs(run.listing_seconds),
                    bench::Secs(run.listing_seconds - run.counting_seconds),
                    TablePrinter::Fmt(run.bytes / 1048576.0, 2)});
    }
    // OPT with 4 threads, macro overlap and morphing: several threads
    // emit into the one async sink at once.
    {
      OptOptions options;
      ctx.Apply(&options);
      options.m_in = std::max(buffer / 2, (*store)->MaxRecordPages());
      options.m_ex = std::max(1u, buffer / 2);
      options.num_threads = 4;
      options.macro_overlap = true;
      options.thread_morphing = true;
      EdgeIteratorModel model;
      auto run = Measure(ctx.get_env(), out, /*async_write=*/true, [&](TriangleSink* sink) {
        OptRunner runner(store->get(), &model, options);
        Status s = runner.Run(sink, nullptr);
        if (!s.ok()) std::fprintf(stderr, "%s\n", s.ToString().c_str());
      });
      table.AddRow({"OPT (4 threads)", specs[d].paper_name,
                    bench::Secs(run.counting_seconds),
                    bench::Secs(run.listing_seconds),
                    bench::Secs(run.listing_seconds - run.counting_seconds),
                    TablePrinter::Fmt(run.bytes / 1048576.0, 2)});
    }
    // MGT.
    {
      MgtOptions options;
      options.memory_pages = std::max(buffer, (*store)->MaxRecordPages());
      auto run = Measure(ctx.get_env(), out, /*async_write=*/false, [&](TriangleSink* sink) {
        Status s = RunMgt(store->get(), sink, options, nullptr);
        if (!s.ok()) std::fprintf(stderr, "%s\n", s.ToString().c_str());
      });
      table.AddRow({"MGT", specs[d].paper_name,
                    bench::Secs(run.counting_seconds),
                    bench::Secs(run.listing_seconds),
                    bench::Secs(run.listing_seconds - run.counting_seconds),
                    TablePrinter::Fmt(run.bytes / 1048576.0, 2)});
    }
    // CC-Seq.
    {
      CcOptions options;
      options.memory_pages = std::max(buffer, (*store)->MaxRecordPages());
      options.temp_dir = ctx.work_dir;
      auto run = Measure(ctx.get_env(), out, /*async_write=*/false, [&](TriangleSink* sink) {
        Status s =
            RunChuCheng(store->get(), ctx.get_env(), sink, options, nullptr);
        if (!s.ok()) std::fprintf(stderr, "%s\n", s.ToString().c_str());
      });
      table.AddRow({"CC-Seq", specs[d].paper_name,
                    bench::Secs(run.counting_seconds),
                    bench::Secs(run.listing_seconds),
                    bench::Secs(run.listing_seconds - run.counting_seconds),
                    TablePrinter::Fmt(run.bytes / 1048576.0, 2)});
    }
  }
  table.Print();
  std::printf("Expected shape (paper Table 3): OPT_serial writes fastest "
              "(overlapped async writes), MGT next, CC-Seq slowest.\n");
  return 0;
}
