// Figure 11 (table): scalability on the Cucumber Mosaic Virus shell —
// OCT_CILK / OCT_MPI / OCT_MPI+CILK on 12 and 144 cores versus Amber,
// with energy values and % difference from the naive exact algorithm.
//
// Paper numbers (509,640 atoms): OCT_CILK 12.5 s; Amber 39 min (12c) /
// 3.3 min (144c); OCT_MPI+CILK 4.8 s / 0.61 s; OCT_MPI 4.5 s / 0.46 s;
// speedups vs Amber ≈ 488/520 (12c) and 325/430 (144c); all octree
// energies within ~0.1 % of naive, Amber ~2 %. GBr6 and Tinker run out of
// memory; Gromacs/NAMD only run with unusably small cutoffs.

#include <cstdio>
#include <exception>

#include "common.hpp"

using namespace octgb;

int main(int argc, char** argv) try {
  double scale = bench::quick_mode() ? 0.02 : 0.06;  // of 509,640 atoms
  util::Args args;
  args.add("scale", &scale, "CMV scale factor (1.0 = 509,640 atoms)");
  bench::TraceSession ts;
  ts.register_args(args);
  args.parse(argc, argv);
  ts.begin();

  bench::print_environment();

  std::printf("Preparing CMV' (scale %.3f)...\n", scale);
  bench::Prepared p = bench::prepare(mol::make_cmv(scale));
  std::printf("CMV': %zu atoms, %zu quadrature points\n\n", p.atoms(),
              p.surf.size());

  // Naive reference (real, serial): energy + its modeled serial time.
  std::printf("Running naive exact reference (%zu x %zu)...\n", p.atoms(),
              p.surf.size());
  perf::WorkCounters naive_work;
  const auto naive_born =
      core::naive_born_radii(p.molecule, p.surf, &naive_work);
  const double naive_e =
      core::naive_epol(p.molecule, naive_born, {}, &naive_work);
  const double naive_t =
      perf::machine::compute_seconds(naive_work, 0.0, 1, false);

  // Octree configurations (real physics, modeled time).
  const auto cilk12 = bench::run_config(*p.engine, bench::oct_cilk_config(12));
  const auto mpi12 = bench::run_config(*p.engine, bench::oct_mpi_config(12));
  const auto hyb12 =
      bench::run_config(*p.engine, bench::oct_hybrid_config(12));
  const auto mpi144 =
      bench::run_config(*p.engine, bench::oct_mpi_config(144));
  const auto hyb144 =
      bench::run_config(*p.engine, bench::oct_hybrid_config(144));
  if (ts.active()) {
    bench::add_sim_metrics(ts.metrics(), "oct_cilk.cores12", cilk12);
    bench::add_sim_metrics(ts.metrics(), "oct_mpi.cores12", mpi12);
    bench::add_sim_metrics(ts.metrics(), "oct_hybrid.cores12", hyb12);
    bench::add_sim_metrics(ts.metrics(), "oct_mpi.cores144", mpi144);
    bench::add_sim_metrics(ts.metrics(), "oct_hybrid.cores144", hyb144);
  }

  // Amber stand-in (12 cores; 144-core Amber scales per its efficiency —
  // the paper notes Amber cannot exceed 256 cores). Amber's GB runs with
  // no interaction cutoff, so its energy here is the full ordered-pair
  // sum over its HCT radii (the default cutoff list would truncate badly
  // on a hollow shell and overstate Amber's error).
  const auto* amber_spec = baselines::find_package("Amber 12");
  auto amber12 = baselines::run_package(*amber_spec, p.molecule, 12);
  const auto amber144 = baselines::run_package(*amber_spec, p.molecule, 144);
  if (!amber12.out_of_memory)
    amber12.epol = core::naive_epol(p.molecule, amber12.born);

  // The comparators that fall over on CMV (§V-F).
  const auto tinker = baselines::run_package(
      *baselines::find_package("Tinker 6.0"), p.molecule);
  const auto gbr6 = baselines::run_package(
      *baselines::find_package("GBr6"), p.molecule);

  util::Table t("Fig. 11 — CMV' scalability (modeled times, real energies)");
  t.header({"program", "12 cores", "144 cores", "speedup vs Amber (12c)",
            "speedup vs Amber (144c)", "Epol kcal/mol", "% diff vs naive"});
  auto pct = [&](double e) {
    return util::format("%.2f", perf::percent_error(e, naive_e));
  };
  t.row({"Naive (serial)", bench::fmt_time(naive_t), "-", "-", "-",
         util::format("%.4g", naive_e), "0.00"});
  t.row({"OCT_CILK", bench::fmt_time(cilk12.total_seconds), "-",
         util::format("%.0f", amber12.modeled_seconds / cilk12.total_seconds),
         "-", util::format("%.4g", cilk12.epol), pct(cilk12.epol)});
  t.row({"Amber 12", bench::fmt_time(amber12.modeled_seconds),
         bench::fmt_time(amber144.modeled_seconds), "1", "1",
         util::format("%.4g", amber12.epol), pct(amber12.epol)});
  t.row({"OCT_MPI+CILK", bench::fmt_time(hyb12.total_seconds),
         bench::fmt_time(hyb144.total_seconds),
         util::format("%.0f", amber12.modeled_seconds / hyb12.total_seconds),
         util::format("%.0f",
                      amber144.modeled_seconds / hyb144.total_seconds),
         util::format("%.4g", hyb12.epol), pct(hyb12.epol)});
  t.row({"OCT_MPI", bench::fmt_time(mpi12.total_seconds),
         bench::fmt_time(mpi144.total_seconds),
         util::format("%.0f", amber12.modeled_seconds / mpi12.total_seconds),
         util::format("%.0f",
                      amber144.modeled_seconds / mpi144.total_seconds),
         util::format("%.4g", mpi12.epol), pct(mpi12.epol)});
  t.row({"Tinker 6.0", tinker.out_of_memory ? "OOM" : "ran", "-", "-", "-",
         "-", "-"});
  t.row({"GBr6", gbr6.out_of_memory ? "OOM" : "ran", "-", "-", "-", "-",
         "-"});
  t.print();
  bench::save_csv(t, "fig11_cmv");
  ts.finish();

  std::puts(
      "\nPaper shape check: all octree variants hundreds of times faster "
      "than Amber with <1% error vs naive; hybrid and pure MPI close at "
      "144 cores; Tinker and GBr6 out of memory.");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
