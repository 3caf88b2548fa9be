// §V-B memory claim: on one node, 12 single-thread ranks (OCT_MPI)
// replicate the molecule data 12× while 2 ranks × 6 threads
// (OCT_MPI+CILK) replicate it only 2× — the paper measures 8.2 GB vs
// 1.4 GB on BTV, a 5.86× ratio.

#include <cstdio>
#include <exception>

#include "common.hpp"

using namespace octgb;

int main(int argc, char** argv) try {
  double scale = bench::quick_mode() ? 0.003 : 0.01;
  util::Args args;
  args.add("scale", &scale, "BTV scale factor (1.0 = 6M atoms)");
  args.parse(argc, argv);

  bench::print_environment();

  bench::Prepared p = bench::prepare(mol::make_btv(scale));
  std::printf("BTV': %zu atoms, %zu quadrature points\n\n", p.atoms(),
              p.surf.size());

  const auto mpi = bench::run_config(*p.engine, bench::oct_mpi_config(12));
  const auto hyb = bench::run_config(*p.engine, bench::oct_hybrid_config(12));

  const double mpi_node = 12.0 * double(mpi.bytes_per_rank);
  const double hyb_node = 2.0 * double(hyb.bytes_per_rank);

  util::Table t("§V-B — per-node memory, one 12-core node");
  t.header({"configuration", "ranks/node", "bytes/rank", "bytes/node"});
  t.row({"OCT_MPI (12 x 1 thread)", "12",
         util::human_bytes(double(mpi.bytes_per_rank)),
         util::human_bytes(mpi_node)});
  t.row({"OCT_MPI+CILK (2 x 6 threads)", "2",
         util::human_bytes(double(hyb.bytes_per_rank)),
         util::human_bytes(hyb_node)});
  t.print();
  bench::save_csv(t, "mem_replication");

  std::printf(
      "\nNode memory ratio OCT_MPI / OCT_MPI+CILK = %.2f "
      "(paper: 8.2 GB / 1.4 GB = 5.86)\n",
      mpi_node / hyb_node);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
