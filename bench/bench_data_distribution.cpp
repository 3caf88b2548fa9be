// Ablation (paper §VI future work): replicate-the-data (the paper's
// evaluated variant) versus distribute-the-data (each rank owns a subtree
// + measured ghost regions). Memory per rank versus added ghost-exchange
// communication, across rank counts.

#include <cstdio>

#include "common.hpp"

using namespace octgb;

int main(int argc, char** argv) {
  double scale = bench::quick_mode() ? 0.003 : 0.01;
  util::Args args;
  args.add("scale", &scale, "BTV scale factor (1.0 = 6M atoms)");
  args.parse(argc, argv);

  perf::MachineModel machine;
  bench::print_environment(machine);

  bench::Prepared p = bench::prepare(mol::make_btv(scale));
  std::printf("BTV': %zu atoms, %zu quadrature points\n\n", p.atoms(),
              p.surf.size());

  util::Table t("replicated vs data-distributed layout");
  t.header({"ranks", "replicated B/rank", "distributed worst B/rank",
            "memory ratio", "worst ghosts", "ghost exchange"});

  for (int ranks : {2, 4, 8, 16, 32}) {
    const auto dd = core::run_data_distributed(*p.engine, ranks, machine);
    std::size_t worst_ghosts = 0;
    for (const auto& r : dd.ranks)
      worst_ghosts = std::max(worst_ghosts, r.ghost_atoms);
    t.row({util::format("%d", ranks),
           util::human_bytes(double(dd.replicated_bytes_per_rank)),
           util::human_bytes(double(dd.max_rank_bytes())),
           util::format("%.1fx", double(dd.replicated_bytes_per_rank) /
                                     double(dd.max_rank_bytes())),
           util::format("%zu atoms", worst_ghosts),
           bench::fmt_time(dd.ghost_exchange_seconds)});
  }
  t.print();
  bench::save_csv(t, "data_distribution");

  std::puts(
      "\nTakeaway: distributing the data shrinks per-rank memory by the "
      "rank count (up to the ghost/skeleton floor) at the price of a "
      "ghost exchange per evaluation — the tradeoff the paper flags as "
      "future work.");
  return 0;
}
