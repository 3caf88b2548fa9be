// Figure 10: effect of the Epol approximation parameter ε on (top) the
// percentage error in the energy and (bottom) the running time, with the
// Born-radius ε fixed at 0.9 and approximate math OFF, for the
// OCT_MPI+CILK configuration across the ZDock set.
//
// Paper observations: error (avg ± std across molecules) grows with ε and
// stays within ~±1.5 %; running time falls as ε grows; small molecules
// are ε-insensitive.

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

  const double eps_values[] = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};

  // Per-molecule naive references (computed once) + engines per ε reuse
  // the same molecule and surface.
  struct Entry {
    bench::Prepared prepared;
    double naive_e;
  };
  std::vector<Entry> entries;
  for (const auto& e : bench::zdock_selection()) {
    Entry item{bench::prepare(mol::make_benchmark_molecule(e.name)), 0.0};
    const auto naive_born =
        core::naive_born_radii(item.prepared.molecule, item.prepared.surf);
    item.naive_e = core::naive_epol(item.prepared.molecule, naive_born);
    std::printf("  reference %-10s %6zu atoms done\n", e.name,
                item.prepared.atoms());
    entries.push_back(std::move(item));
  }

  util::Table t(
      "Fig. 10 — error and runtime vs eps_Epol (eps_Born = 0.9, approx "
      "math OFF, OCT_MPI+CILK on 12 cores)");
  t.header({"eps", "err avg %", "err std %", "err min %", "err max %",
            "time small (med)", "time large (med)"});

  for (double eps : eps_values) {
    perf::RunStats err;
    std::vector<double> small_times, large_times;
    for (auto& item : entries) {
      core::EngineConfig cfg;
      cfg.approx.eps_epol = eps;
      core::GBEngine engine(item.prepared.molecule, item.prepared.surf, cfg);
      const auto sim = bench::run_config(engine, bench::oct_hybrid_config(12));
      if (ts.active())
        bench::add_sim_metrics(
            ts.metrics(),
            util::format("oct_hybrid.eps%02d.", int(eps * 10 + 0.5)) +
                std::to_string(item.prepared.atoms()) + "atoms",
            sim);
      err.add(perf::percent_error(sim.epol, item.naive_e));
      (item.prepared.atoms() < 2500 ? small_times : large_times)
          .push_back(sim.total_seconds);
    }
    auto median = [](std::vector<double>& v) {
      if (v.empty()) return 0.0;
      std::sort(v.begin(), v.end());
      return v[v.size() / 2];
    };
    t.row({util::format("%.1f", eps), util::format("%.4f", err.mean()),
           util::format("%.4f", err.stddev()),
           util::format("%.4f", err.min()), util::format("%.4f", err.max()),
           bench::fmt_time(median(small_times)),
           bench::fmt_time(median(large_times))});
    std::printf("  eps=%.1f done\n", eps);
  }

  std::puts("");
  t.print();
  bench::save_csv(t, "fig10_epsilon");
  ts.finish();

  std::puts(
      "\nPaper shape check: |error| grows with eps but stays within the "
      "~1.5% band of Fig. 10; large-molecule time falls with eps while "
      "small-molecule time barely moves.");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
