// Splits one graph into N vertex-range shards for sharded serving:
// per-shard GraphStores (owned edges + closure edges) plus a manifest
// recording ranges, page counts, and per-shard ghost-triangle counts.
// The merged COUNT over the shards minus the manifest ghosts equals the
// global triangle count exactly (see src/shard/shard_plan.h).
//
//   graph_partition (--input edges.txt | --store /path/base) \
//       --output /path/prefix [--shards N] [--page_size N] \
//       [--graph NAME] [--save_csr]
//
// Writes <output>.shard<i>.pages/.meta per shard and the manifest at
// <output>.manifest; --save_csr also writes <output>.csr (the unsharded
// graph, for differential testing). --graph names the graph every shard
// serves (default "g"); opt_router must be pointed at the manifest.
#include <cstdio>

#include "graph/builder.h"
#include "graph/csr_graph.h"
#include "shard/shard_plan.h"
#include "storage/env.h"
#include "storage/graph_store.h"
#include "storage/record_scanner.h"
#include "util/cli.h"
#include "util/logging.h"
#include "util/table_printer.h"

using namespace opt;

namespace {

/// Rebuilds the in-memory CSR graph from an on-disk store by scanning
/// every record (each undirected edge is taken once, from its smaller
/// endpoint's list).
Result<CSRGraph> LoadStoreAsCSR(Env* env, const std::string& base_path) {
  auto store = GraphStore::Open(env, base_path);
  if (!store.ok()) return store.status();
  std::vector<Edge> edges;
  edges.reserve((*store)->num_directed_edges() / 2);
  Status s = ScanRecords(**store, 0, (*store)->num_pages() - 1,
                         [&](VertexId u, const AdjacencyRef& adj) {
                           for (VertexId v : adj.succ()) {
                             edges.emplace_back(u, v);
                           }
                         });
  if (!s.ok()) return s;
  return GraphBuilder::FromEdges(std::move(edges));
}

}  // namespace

int main(int argc, char** argv) {
  InitLogLevelFromEnv();
  auto cl = CommandLine::Parse(argc, argv);
  const bool has_source =
      cl.ok() && (cl->Has("input") != cl->Has("store"));
  if (!cl.ok() || !has_source || !cl->Has("output")) {
    std::fprintf(stderr,
                 "usage: %s (--input edges.txt | --store /path/base) "
                 "--output /path/prefix [--shards N] [--page_size N] "
                 "[--graph NAME] [--save_csr]\n",
                 argv[0]);
    return 2;
  }

  Env* env = Env::Default();
  Result<CSRGraph> graph =
      cl->Has("input")
          ? GraphBuilder::FromEdgeListFile(cl->GetString("input"))
          : LoadStoreAsCSR(env, cl->GetString("store"));
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }

  ShardPlanOptions options;
  options.num_shards = static_cast<uint32_t>(cl->GetInt("shards", 4));
  options.page_size =
      static_cast<uint32_t>(cl->GetInt("page_size", kDefaultPageSize));
  const std::string output = cl->GetString("output");
  const std::string name = cl->GetString("graph", "g");

  auto manifest = PartitionGraph(*graph, env, name, output, options);
  if (!manifest.ok()) {
    std::fprintf(stderr, "%s\n", manifest.status().ToString().c_str());
    return 1;
  }
  const std::string manifest_path = output + ".manifest";
  if (Status s = manifest->Save(manifest_path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  if (cl->GetBool("save_csr", false)) {
    if (Status s = graph->Save(output + ".csr"); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }

  std::printf("graph '%s': %u vertices, %llu edges -> %u shards\n",
              name.c_str(), manifest->num_vertices,
              static_cast<unsigned long long>(manifest->num_edges),
              manifest->num_shards());
  TablePrinter table({"shard", "range", "owned", "closure", "ghosts",
                      "pages", "store"});
  for (const ShardInfo& shard : manifest->shards) {
    table.AddRow({TablePrinter::Fmt(uint64_t{shard.id}),
                  "[" + TablePrinter::Fmt(uint64_t{shard.range_lo}) + "," +
                      TablePrinter::Fmt(uint64_t{shard.range_hi}) + ")",
                  TablePrinter::Fmt(shard.owned_edges),
                  TablePrinter::Fmt(shard.closure_edges),
                  TablePrinter::Fmt(shard.ghost_triangles),
                  TablePrinter::Fmt(uint64_t{shard.num_pages}),
                  shard.base_path});
  }
  table.Print();
  std::printf("replicated adjacency: %llu bytes  ghost triangles: %llu\n",
              static_cast<unsigned long long>(manifest->replicated_bytes()),
              static_cast<unsigned long long>(
                  manifest->ghost_triangles_total()));
  std::printf("manifest: %s\n", manifest_path.c_str());
  return 0;
}
