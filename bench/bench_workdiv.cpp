// §IV work-division ablation: node-based vs atom-based division of the
// energy phase, across process counts.
//
// Paper observations: (a) node–node division is slightly faster and
// (b) its error is *constant in P* (each rank always handles whole tree
// leaves), while atom-based division's error drifts with P because the
// segment boundaries change which (U, V) pairs are admissible. Also
// compares the paper's even-by-count leaf split against the weighted
// (points-balanced) split as a load-balancing ablation.

#include <cstdio>
#include <exception>

#include "common.hpp"

using namespace octgb;

int main(int argc, char** argv) try {
  std::string molecule_name = "1FQ1_l_b";  // mid-size, 4,730 atoms
  util::Args args;
  args.add("molecule", &molecule_name, "ZDock molecule to use");
  args.parse(argc, argv);

  bench::print_environment();

  bench::Prepared p =
      bench::prepare(mol::make_benchmark_molecule(molecule_name));
  const auto naive_born = core::naive_born_radii(p.molecule, p.surf);
  const double naive_e = core::naive_epol(p.molecule, naive_born);
  std::printf("%s: %zu atoms, naive Epol %.2f kcal/mol\n\n",
              molecule_name.c_str(), p.atoms(), naive_e);

  util::Table t("§IV — node-based vs atom-based Epol work division");
  t.header({"P", "node-based err %", "atom-based err %", "node-based time",
            "atom-based time", "weighted-split time"});

  std::vector<double> node_errors, atom_errors;
  for (int P : {1, 2, 4, 8, 12, 16}) {
    sim::ClusterConfig node_cfg = bench::oct_mpi_config(P);
    sim::ClusterConfig atom_cfg = node_cfg;
    atom_cfg.atom_based_epol = true;
    sim::ClusterConfig weighted_cfg = node_cfg;
    weighted_cfg.weighted_division = true;

    const auto node_r = bench::run_config(*p.engine, node_cfg);
    const auto atom_r = bench::run_config(*p.engine, atom_cfg);
    const auto weighted_r = bench::run_config(*p.engine, weighted_cfg);

    const double node_err = perf::percent_error(node_r.epol, naive_e);
    const double atom_err = perf::percent_error(atom_r.epol, naive_e);
    node_errors.push_back(node_err);
    atom_errors.push_back(atom_err);

    t.row({util::format("%d", P), util::format("%.5f", node_err),
           util::format("%.5f", atom_err),
           bench::fmt_time(node_r.total_seconds),
           bench::fmt_time(atom_r.total_seconds),
           bench::fmt_time(weighted_r.total_seconds)});
  }
  t.print();
  bench::save_csv(t, "workdiv");

  double node_spread = 0, atom_spread = 0;
  for (double e : node_errors)
    node_spread = std::max(node_spread, std::abs(e - node_errors[0]));
  for (double e : atom_errors)
    atom_spread = std::max(atom_spread, std::abs(e - atom_errors[0]));
  std::printf(
      "\nPaper check: node-based error spread across P = %.6f%% "
      "(constant), atom-based spread = %.6f%% (drifts with P)\n",
      node_spread, atom_spread);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
