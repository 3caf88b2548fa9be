// Figure 8: (a) running time of all engines on the ZDock set (12 cores,
// log scale in the paper) and (b) speedup w.r.t. Amber 12.
//
// Octree engine times are modeled from measured work (DESIGN.md §2);
// package times come from their measured pair/grid operation counts and
// their fixed calibration constants (packages.hpp — fitted once to the
// paper's stated anchors: OCT_MPI ≈ 11× Amber at 16,301 atoms, Gromacs
// 2.7× there with max 6.2× at 2,260, NAMD/Tinker/GBr6 maxima ≈ 1.1 / 2.1
// / 1.14). The naive engine is serial, like the paper's.

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
  bench::print_package_table();

  util::Table ta(
      "Fig. 8(a) — GB-energy running time on 12 cores (modeled; naive and "
      "GBr6 serial)");
  ta.header({"molecule", "atoms", "OCT_MPI", "OCT_MPI+CILK", "OCT_CILK",
             "Gromacs", "Amber", "NAMD", "Tinker", "GBr6", "Naive"});
  util::Table tb("Fig. 8(b) — speedup w.r.t. Amber 12 (12 cores)");
  tb.header({"molecule", "atoms", "OCT_MPI", "OCT_MPI+CILK", "OCT_CILK",
             "Gromacs", "NAMD", "Tinker", "GBr6"});

  double max_speedup_oct = 0, max_speedup_gromacs = 0, max_speedup_namd = 0,
         max_speedup_tinker = 0, max_speedup_gbr6 = 0;
  double oct_at_largest = 0, gromacs_at_largest = 0;

  const auto selection = bench::zdock_selection();
  for (const auto& entry : selection) {
    bench::Prepared p = bench::prepare(mol::make_benchmark_molecule(entry.name));
    const auto mpi_res =
        bench::run_config(*p.engine, bench::oct_mpi_config(12));
    const auto hyb_res =
        bench::run_config(*p.engine, bench::oct_hybrid_config(12));
    const auto cilk_res =
        bench::run_config(*p.engine, bench::oct_cilk_config(12));
    if (ts.active()) {
      bench::add_sim_metrics(ts.metrics(),
                             std::string("oct_mpi.") + entry.name, mpi_res);
      bench::add_sim_metrics(ts.metrics(),
                             std::string("oct_hybrid.") + entry.name, hyb_res);
      bench::add_sim_metrics(ts.metrics(),
                             std::string("oct_cilk.") + entry.name, cilk_res);
    }
    const double oct_mpi = mpi_res.total_seconds;
    const double oct_hyb = hyb_res.total_seconds;
    const double oct_cilk = cilk_res.total_seconds;

    std::map<std::string, double> pkg_time;
    for (const auto& spec : baselines::package_registry()) {
      const auto r = baselines::run_package(spec, p.molecule);
      pkg_time[spec.name] = r.out_of_memory ? -1.0 : r.modeled_seconds;
    }

    // Naive: serial exact algorithm — M·N Born interactions + M² GB pairs.
    perf::WorkCounters naive_work;
    naive_work.born_exact = std::uint64_t(p.atoms()) * p.surf.size();
    naive_work.push_atoms = p.atoms();
    naive_work.epol_exact = std::uint64_t(p.atoms()) * p.atoms();
    const double naive_t =
        perf::machine::compute_seconds(naive_work, 0.0, 1, false);

    auto fmt = [](double s) {
      return s < 0 ? std::string("OOM") : bench::fmt_time(s);
    };
    ta.row({entry.name, util::format("%zu", p.atoms()), fmt(oct_mpi),
            fmt(oct_hyb), fmt(oct_cilk), fmt(pkg_time["Gromacs 4.5.3"]),
            fmt(pkg_time["Amber 12"]), fmt(pkg_time["NAMD 2.9"]),
            fmt(pkg_time["Tinker 6.0"]), fmt(pkg_time["GBr6"]),
            fmt(naive_t)});

    const double amber = pkg_time["Amber 12"];
    auto speedup = [&](double s) {
      return s <= 0 ? std::string("OOM")
                    : util::format("%.2f", amber / s);
    };
    tb.row({entry.name, util::format("%zu", p.atoms()), speedup(oct_mpi),
            speedup(oct_hyb), speedup(oct_cilk),
            speedup(pkg_time["Gromacs 4.5.3"]), speedup(pkg_time["NAMD 2.9"]),
            speedup(pkg_time["Tinker 6.0"]), speedup(pkg_time["GBr6"])});

    max_speedup_oct = std::max(max_speedup_oct, amber / oct_mpi);
    if (pkg_time["Gromacs 4.5.3"] > 0)
      max_speedup_gromacs =
          std::max(max_speedup_gromacs, amber / pkg_time["Gromacs 4.5.3"]);
    if (pkg_time["NAMD 2.9"] > 0)
      max_speedup_namd =
          std::max(max_speedup_namd, amber / pkg_time["NAMD 2.9"]);
    if (pkg_time["Tinker 6.0"] > 0)
      max_speedup_tinker =
          std::max(max_speedup_tinker, amber / pkg_time["Tinker 6.0"]);
    if (pkg_time["GBr6"] > 0)
      max_speedup_gbr6 =
          std::max(max_speedup_gbr6, amber / pkg_time["GBr6"]);
    if (entry.name == selection.back().name) {
      oct_at_largest = amber / oct_mpi;
      if (pkg_time["Gromacs 4.5.3"] > 0)
        gromacs_at_largest = amber / pkg_time["Gromacs 4.5.3"];
    }
    std::printf("  %-10s %6zu atoms done\n", entry.name, p.atoms());
  }

  std::puts("");
  ta.print();
  std::puts("");
  tb.print();
  bench::save_csv(ta, "fig8a_runtimes");
  bench::save_csv(tb, "fig8b_speedups");

  util::Table anchors("Fig. 8(b) anchors: paper vs measured");
  anchors.header({"anchor", "paper", "measured"});
  anchors.row({"OCT_MPI speedup at largest molecule", "~11",
               util::format("%.1f", oct_at_largest)});
  anchors.row({"Gromacs speedup at largest molecule", "~2.7",
               util::format("%.1f", gromacs_at_largest)});
  anchors.row({"Gromacs max speedup", "6.2",
               util::format("%.1f", max_speedup_gromacs)});
  anchors.row({"NAMD max speedup", "1.1",
               util::format("%.1f", max_speedup_namd)});
  anchors.row({"Tinker max speedup", "2.1",
               util::format("%.1f", max_speedup_tinker)});
  anchors.row({"GBr6 max speedup", "1.14",
               util::format("%.2f", max_speedup_gbr6)});
  std::puts("");
  anchors.print();
  bench::save_csv(anchors, "fig8b_anchors");
  ts.finish();
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
