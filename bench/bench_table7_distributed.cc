// Table 7: one-PC OPT vs distributed triangulation on a 31-node
// cluster (SV on Hadoop, AKM on MPI, PowerGraph). The distributed
// methods run as exact simulations: their real computation executes
// locally and their true communication volumes are charged to a
// network model; Hadoop's per-round job overhead dominates SV exactly
// as in the paper's measurements.
#include "bench_common.h"

#include "distsim/distributed.h"
#include "harness/datasets.h"

using namespace opt;

int main(int argc, char** argv) {
  auto ctx = bench::MakeContext(argc, argv);
  bench::Banner("Table 7",
                "OPT (1 node) vs simulated distributed methods (31 "
                "nodes) on the TWITTER stand-in");

  auto specs = PaperDatasets(ctx.scale_shift);
  CSRGraph graph;
  auto store = MaterializeDataset(specs[2] /*TWITTER*/, ctx.get_env(),
                                  ctx.work_dir, bench::kPageSize, &graph);
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return 1;
  }

  // OPT on one "node".
  MethodConfig config;
  config.memory_pages = PagesForBufferPercent(**store, 15.0);
  config.num_threads = ctx.threads;
  config.temp_dir = ctx.work_dir;
  auto opt = RunMethod(Method::kOpt, store->get(), ctx.get_env(), config);
  if (!opt.ok()) {
    std::fprintf(stderr, "%s\n", opt.status().ToString().c_str());
    return 1;
  }

  DistSimOptions dist;
  dist.nodes = 31;
  dist.cores_per_node = 12;
  // Hadoop job rounds carry tens of seconds of scheduling and HDFS
  // materialization overhead; MPI rounds are cheap barriers. Scaled to
  // this harness's graph sizes.
  DistSimOptions sv_options = dist;
  sv_options.network.round_latency_sec = 5.0;   // Hadoop job overhead
  sv_options.network.bandwidth_bytes_per_sec = 1.0e8;  // incl. HDFS I/O
  DistSimOptions mpi_options = dist;
  mpi_options.network.round_latency_sec = 0.05;
  mpi_options.network.bandwidth_bytes_per_sec = 2.0e9;

  auto sv = SimulateSV(graph, sv_options);
  auto akm = SimulateAKM(graph, mpi_options);
  auto pg = SimulatePowerGraph(graph, mpi_options);
  if (!sv.ok() || !akm.ok() || !pg.ok()) {
    std::fprintf(stderr, "simulation failed\n");
    return 1;
  }
  for (const auto* r : {&*sv, &*akm, &*pg}) {
    if (r->triangles != opt->triangles) {
      std::fprintf(stderr, "COUNT MISMATCH: %llu vs %llu\n",
                   static_cast<unsigned long long>(r->triangles),
                   static_cast<unsigned long long>(opt->triangles));
      return 1;
    }
  }

  TablePrinter table({"method", "framework", "nodes", "elapsed (s)",
                      "shuffle MB", "relative perf per node vs OPT"});
  auto add = [&](const char* name, const char* framework,
                 const DistSimResult& r) {
    // Relative performance = (elapsed * nodes) / (opt elapsed * 1).
    const double rel = (r.elapsed_seconds * r.nodes) / opt->seconds;
    table.AddRow({name, framework, TablePrinter::Fmt(uint64_t{r.nodes}),
                  bench::Secs(r.elapsed_seconds),
                  TablePrinter::Fmt(r.shuffle_bytes / 1048576.0, 2),
                  TablePrinter::Fmt(rel, 1)});
  };
  table.AddRow({"OPT", "this work", "1", bench::Secs(opt->seconds), "0.00",
                "1.0"});
  add("SV", "Hadoop", *sv);
  add("AKM", "MPI", *akm);
  add("PowerGraph", "MPI", *pg);
  table.Print();
  std::printf("Expected shape (paper Table 7): SV slowest by far (Hadoop "
              "rounds + shuffle duplication); AKM slightly slower than "
              "OPT; PowerGraph competitive in wall time but ~24x worse "
              "per node.\n");
  return 0;
}
