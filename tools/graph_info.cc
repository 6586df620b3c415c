// Prints structural information about an on-disk GraphStore, including
// the degree histogram.
//
//   graph_info --store /path/base [--histogram]
#include <cstdio>

#include "graph/stats.h"
#include "storage/env.h"
#include "storage/graph_store.h"
#include "storage/record_scanner.h"
#include "util/cli.h"
#include "util/histogram.h"
#include "util/logging.h"

using namespace opt;

int main(int argc, char** argv) {
  InitLogLevelFromEnv();
  auto cl = CommandLine::Parse(argc, argv);
  if (!cl.ok() || !cl->Has("store")) {
    std::fprintf(stderr, "usage: %s --store /path/base [--histogram]\n",
                 argv[0]);
    return 2;
  }
  auto store = GraphStore::Open(Env::Default(), cl->GetString("store"));
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return 1;
  }
  std::printf("pages:          %u x %u bytes\n", (*store)->num_pages(),
              (*store)->page_size());
  std::printf("vertices:       %u\n", (*store)->num_vertices());
  std::printf("directed edges: %llu\n",
              static_cast<unsigned long long>(
                  (*store)->num_directed_edges()));
  std::printf("max record:     %u pages\n", (*store)->MaxRecordPages());

  Histogram degrees;
  uint64_t wedges = 0;
  Status s = ScanRecords(**store, 0, (*store)->num_pages() - 1,
                         [&](VertexId, const AdjacencyRef& adj) {
                           degrees.Add(adj.all.size());
                           const uint64_t d = adj.all.size();
                           wedges += d * (d - 1) / 2;
                         });
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("avg degree:     %.2f  max degree: %llu  wedges: %llu\n",
              degrees.Mean(),
              static_cast<unsigned long long>(degrees.max()),
              static_cast<unsigned long long>(wedges));
  if (cl->GetBool("histogram", false)) {
    std::printf("degree histogram:\n%s", degrees.ToString().c_str());
  }
  return 0;
}
