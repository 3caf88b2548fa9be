// §V-C approximate-math claim: enabling the fast rsqrt/exp kernels shifts
// the energy error by a few percent and speeds up the computation by
// ×1.42 on average. The error shift here is *measured* (real kernels);
// the speedup is the machine model's documented constant applied to the
// measured interaction counts.

#include <cstdio>
#include <exception>

#include "common.hpp"

using namespace octgb;

int main(int argc, char** argv) try {
  util::Args args;
  args.parse(argc, argv);

  bench::print_environment();

  util::Table t("§V-C — approximate math on vs off (OCT_MPI+CILK, 12 cores)");
  t.header({"molecule", "atoms", "E exact-math", "E approx-math",
            "shift %", "time exact", "time approx", "speedup"});

  perf::RunStats shift, speedup;
  for (const auto& entry : bench::zdock_selection()) {
    const auto molecule = mol::make_benchmark_molecule(entry.name);
    core::EngineConfig cfg_exact;
    bench::Prepared p_exact = bench::prepare(molecule, cfg_exact);
    core::EngineConfig cfg_fast;
    cfg_fast.approx.approx_math = true;
    core::GBEngine fast_engine(p_exact.molecule, p_exact.surf, cfg_fast);

    const auto exact =
        bench::run_config(*p_exact.engine, bench::oct_hybrid_config(12));
    const auto fast =
        bench::run_config(fast_engine, bench::oct_hybrid_config(12));

    const double s = perf::percent_error(fast.epol, exact.epol);
    const double sp = exact.total_seconds / fast.total_seconds;
    shift.add(std::abs(s));
    speedup.add(sp);
    t.row({entry.name, util::format("%zu", p_exact.atoms()),
           util::format("%.1f", exact.epol), util::format("%.1f", fast.epol),
           util::format("%.2f", s), bench::fmt_time(exact.total_seconds),
           bench::fmt_time(fast.total_seconds), util::format("%.2f", sp)});
    std::printf("  %-10s done\n", entry.name);
  }
  std::puts("");
  t.print();
  bench::save_csv(t, "approx_math");

  std::printf(
      "\nPaper check: avg |energy shift| %.2f%% (paper: 4-5%%), avg "
      "speedup %.2fx (paper: 1.42x)\n",
      shift.mean(), speedup.mean());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
