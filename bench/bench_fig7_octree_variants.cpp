// Figure 7: running time of the three octree configurations (OCT_CILK,
// OCT_MPI, OCT_MPI+CILK) on the ZDock benchmark, one 12-core node,
// eps = 0.9/0.9, approximate math ON, sorted by OCT_CILK time.
//
// Paper observations to reproduce: OCT_CILK wins below ~2,500 atoms
// (communication cost dominates the distributed variants on small
// inputs), OCT_MPI is slightly ahead of OCT_MPI+CILK below ~7,500 atoms
// (thread-scheduling and interfacing overhead), and the two converge for
// larger molecules.

#include <algorithm>
#include <cstdio>
#include <exception>

#include "common.hpp"

using namespace octgb;

int main(int argc, char** argv) try {
  util::Args args;
  bench::TraceSession ts;
  ts.register_args(args);
  args.parse(argc, argv);
  ts.begin();

  bench::print_environment();

  struct Row {
    std::string name;
    std::size_t atoms;
    double cilk, mpi, hybrid;
  };
  std::vector<Row> rows;

  core::EngineConfig cfg;
  cfg.approx.approx_math = true;  // the paper's Fig. 7 setting

  for (const auto& entry : bench::zdock_selection()) {
    bench::Prepared p =
        bench::prepare(mol::make_benchmark_molecule(entry.name), cfg);
    Row r;
    r.name = entry.name;
    r.atoms = p.atoms();
    const auto cilk =
        bench::run_config(*p.engine, bench::oct_cilk_config(12));
    const auto mpi = bench::run_config(*p.engine, bench::oct_mpi_config(12));
    const auto hyb =
        bench::run_config(*p.engine, bench::oct_hybrid_config(12));
    r.cilk = cilk.total_seconds;
    r.mpi = mpi.total_seconds;
    r.hybrid = hyb.total_seconds;
    if (ts.active()) {
      bench::add_sim_metrics(ts.metrics(), "oct_cilk." + r.name, cilk);
      bench::add_sim_metrics(ts.metrics(), "oct_mpi." + r.name, mpi);
      bench::add_sim_metrics(ts.metrics(), "oct_hybrid." + r.name, hyb);
    }
    rows.push_back(r);
    std::printf("  %-10s %6zu atoms done\n", r.name.c_str(), r.atoms);
  }

  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.cilk < b.cilk; });

  util::Table t(
      "Fig. 7 — octree variants on 12 cores (modeled, approx math ON, "
      "sorted by OCT_CILK time)");
  t.header({"molecule", "atoms", "OCT_CILK", "OCT_MPI", "OCT_MPI+CILK",
            "fastest"});
  int cilk_wins_small = 0, mpi_wins_large = 0;
  for (const auto& r : rows) {
    const char* fastest =
        r.cilk <= r.mpi && r.cilk <= r.hybrid
            ? "OCT_CILK"
            : (r.mpi <= r.hybrid ? "OCT_MPI" : "OCT_MPI+CILK");
    if (r.atoms < 2500 && std::string(fastest) == "OCT_CILK")
      ++cilk_wins_small;
    if (r.atoms > 2500 && std::string(fastest) != "OCT_CILK")
      ++mpi_wins_large;
    t.row({r.name, util::format("%zu", r.atoms), bench::fmt_time(r.cilk),
           bench::fmt_time(r.mpi), bench::fmt_time(r.hybrid), fastest});
  }
  t.print();
  bench::save_csv(t, "fig7_octree_variants");
  ts.finish();

  std::printf(
      "\nPaper shape check: OCT_CILK fastest on %d of the <2500-atom "
      "molecules; a distributed variant fastest on %d of the larger "
      "ones.\n",
      cilk_wins_small, mpi_wins_large);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
