// Figure 9: Epol computed by the different algorithms across the ZDock
// set. Everything here is a *real* computation (no timing model): octree
// engine, naive exact reference, and the package stand-ins (HCT/OBC over
// a 20 Å cutoff list, Still, GBr6 volume method).
//
// Paper observations to reproduce: Amber, GBr6, Gromacs, NAMD and OCT_MPI
// track the naive energy closely; Tinker reports ≈ 70 % of it; all octree
// variants agree with each other.

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

  util::Table t("Fig. 9 — Epol (kcal/mol) by algorithm");
  t.header({"molecule", "atoms", "Naive", "OCT", "Amber", "Gromacs", "NAMD",
            "Tinker", "GBr6", "OCT err%"});

  perf::RunStats oct_err, amber_ratio, tinker_ratio;
  for (const auto& entry : bench::zdock_selection()) {
    bench::Prepared p =
        bench::prepare(mol::make_benchmark_molecule(entry.name));
    const auto naive_born = core::naive_born_radii(p.molecule, p.surf);
    const double naive_e = core::naive_epol(p.molecule, naive_born);
    const auto oct = p.engine->compute();
    if (ts.active())
      ts.metrics().add_work(std::string("oct.") + entry.name, oct.work);

    std::map<std::string, double> pkg;
    for (const auto& spec : baselines::package_registry()) {
      const auto r = baselines::run_package(spec, p.molecule);
      pkg[spec.name] = r.out_of_memory ? 0.0 : r.epol;
    }

    const double err = perf::percent_error(oct.epol, naive_e);
    oct_err.add(err);
    if (pkg["Amber 12"] != 0.0) amber_ratio.add(pkg["Amber 12"] / naive_e);
    if (pkg["Tinker 6.0"] != 0.0)
      tinker_ratio.add(pkg["Tinker 6.0"] / naive_e);

    auto fmt = [](double e) {
      return e == 0.0 ? std::string("OOM") : util::format("%.1f", e);
    };
    t.row({entry.name, util::format("%zu", p.atoms()),
           util::format("%.1f", naive_e), util::format("%.1f", oct.epol),
           fmt(pkg["Amber 12"]), fmt(pkg["Gromacs 4.5.3"]),
           fmt(pkg["NAMD 2.9"]), fmt(pkg["Tinker 6.0"]), fmt(pkg["GBr6"]),
           util::format("%.3f", err)});
    std::printf("  %-10s %6zu atoms done\n", entry.name, p.atoms());
  }

  std::puts("");
  t.print();
  bench::save_csv(t, "fig9_energy");
  ts.finish();

  std::printf(
      "\nPaper shape check:\n"
      "  octree-vs-naive error: avg %.3f%%, worst |%.3f|%% (paper: <1%%)\n"
      "  Amber/naive energy ratio: avg %.2f (paper: close to 1)\n"
      "  Tinker/naive energy ratio: avg %.2f (paper: ~0.7)\n",
      oct_err.mean(), std::max(std::abs(oct_err.min()), std::abs(oct_err.max())),
      amber_ratio.mean(), tinker_ratio.mean());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
