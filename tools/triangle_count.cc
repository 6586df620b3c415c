// Runs any triangulation method in the repository against an on-disk
// GraphStore.
//
//   triangle_count --store /path/base [--method OPT|OPT_serial|MGT|
//       CC-Seq|CC-DS|GraphChi-Tri|ideal] [--buffer_percent 15]
//       [--threads N] [--list FILE]
#include <cstdio>
#include <string>

#include "core/iterator_model.h"
#include "core/opt_runner.h"
#include "core/triangle_sink.h"
#include "harness/datasets.h"
#include "harness/methods.h"
#include "storage/env.h"
#include "storage/graph_store.h"
#include "util/cli.h"
#include "util/logging.h"

using namespace opt;

int main(int argc, char** argv) {
  InitLogLevelFromEnv();
  auto cl = CommandLine::Parse(argc, argv);
  if (!cl.ok() || !cl->Has("store")) {
    std::fprintf(stderr,
                 "usage: %s --store /path/base [--method NAME] "
                 "[--buffer_percent P] [--threads N] [--list FILE]\n",
                 argv[0]);
    return 2;
  }
  auto store = GraphStore::Open(Env::Default(), cl->GetString("store"));
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return 1;
  }

  const std::string method_name = cl->GetString("method", "OPT");
  const std::string list_path = cl->GetString("list", "");

  MethodConfig config;
  config.memory_pages = PagesForBufferPercent(
      **store, cl->GetDouble("buffer_percent", 15.0));
  config.num_threads = static_cast<uint32_t>(cl->GetInt("threads", 2));
  config.temp_dir = "/tmp";

  if (!list_path.empty()) {
    // Listing mode runs OPT directly with a ListingSink.
    OptOptions options;
    options.m_in = std::max(config.memory_pages / 2,
                            (*store)->MaxRecordPages());
    options.m_ex = std::max(1u, config.memory_pages / 2);
    options.num_threads = config.num_threads;
    EdgeIteratorModel model;
    OptRunner runner(store->get(), &model, options);
    ListingSink listing(Env::Default(), list_path);
    CountingSink counter;
    TeeSink sink({&counter, &listing});
    if (Status s = runner.Run(&sink, nullptr); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("triangles: %llu  (listing: %s, %llu bytes, nested "
                "representation)\n",
                static_cast<unsigned long long>(counter.count()),
                list_path.c_str(),
                static_cast<unsigned long long>(listing.bytes_written()));
    return 0;
  }

  Method method = Method::kOpt;
  for (Method candidate :
       {Method::kOpt, Method::kOptSerial, Method::kOptVertexIter,
        Method::kMgt, Method::kCcSeq, Method::kCcDs, Method::kGraphChiTri,
        Method::kIdeal}) {
    if (method_name == MethodName(candidate)) method = candidate;
  }
  auto result = RunMethod(method, store->get(), Env::Default(), config);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("method:    %s\n", result->method.c_str());
  std::printf("intersect: %llu calls, %llu elements\n",
              static_cast<unsigned long long>(result->intersect.TotalCalls()),
              static_cast<unsigned long long>(
                  result->intersect.TotalElements()));
  std::printf("triangles: %llu\n",
              static_cast<unsigned long long>(result->triangles));
  std::printf("elapsed:   %.3f s\n", result->seconds);
  std::printf("pages:     %llu read, %llu written, %u iterations\n",
              static_cast<unsigned long long>(result->pages_read),
              static_cast<unsigned long long>(result->pages_written),
              result->iterations);
  return 0;
}
