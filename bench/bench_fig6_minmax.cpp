// Figure 6: min and max running time over 20 repeats versus core count for
// OCT_MPI and OCT_MPI+CILK on BTV'.
//
// The paper's observation: past ~180 cores the hybrid *minimum* time beats
// pure MPI, while the pure-MPI *maximum* is always worse (more ranks →
// worse straggler). Repeats here perturb the modeled base time with the
// documented jitter model (per-rank OS noise + network jitter).

#include <cstdio>
#include <exception>

#include "common.hpp"

using namespace octgb;

int main(int argc, char** argv) try {
  double scale = bench::quick_mode() ? 0.005 : 0.01;
  int repeats = 20;
  util::Args args;
  args.add("scale", &scale, "BTV scale factor (1.0 = 6M atoms)");
  args.add("repeats", &repeats, "repeat count (paper: 20)");
  bench::TraceSession ts;
  ts.register_args(args);
  args.parse(argc, argv);
  ts.begin();

  bench::print_environment();

  bench::Prepared p = bench::prepare(mol::make_btv(scale));
  std::printf("BTV': %zu atoms, %zu quadrature points\n\n", p.atoms(),
              p.surf.size());

  util::Table t(util::format(
      "Fig. 6 — min/max of %d runs vs cores, BTV', eps=0.9/0.9", repeats));
  t.header({"cores", "MPI min", "MPI max", "HYB min", "HYB max",
            "hybrid min wins"});

  const int core_counts[] = {120, 180, 230, 280, 330, 380, 432};
  for (int cores : core_counts) {
    const auto mpi_cfg = bench::oct_mpi_config(cores);
    const auto hyb_cfg = bench::oct_hybrid_config(cores);
    const auto mpi = bench::run_config(*p.engine, mpi_cfg);
    const auto hyb = bench::run_config(*p.engine, hyb_cfg);
    if (ts.active()) {
      bench::add_sim_metrics(ts.metrics(),
                             util::format("oct_mpi.cores%d", cores), mpi);
      bench::add_sim_metrics(ts.metrics(),
                             util::format("oct_hybrid.cores%d", cores), hyb);
    }
    perf::RunStats mpi_stats, hyb_stats;
    for (int rep = 0; rep < repeats; ++rep) {
      mpi_stats.add(sim::jittered_total_seconds(mpi, mpi_cfg,
                                                cores * 1000 + rep));
      hyb_stats.add(sim::jittered_total_seconds(hyb, hyb_cfg,
                                                cores * 2000 + rep));
    }
    t.row({util::format("%d", cores), bench::fmt_time(mpi_stats.min()),
           bench::fmt_time(mpi_stats.max()), bench::fmt_time(hyb_stats.min()),
           bench::fmt_time(hyb_stats.max()),
           hyb_stats.min() < mpi_stats.min() ? "yes" : "no"});
  }
  t.print();
  bench::save_csv(t, "fig6_minmax");
  ts.finish();

  std::puts(
      "\nPaper shape check: the hybrid max stays below the MPI max at every "
      "core count (6x fewer ranks -> smaller straggler tail + less "
      "communication), and the hybrid min overtakes the MPI min in the "
      "upper core range.");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
