// Quickstart: compute the GB polarization energy of a protein with the
// octree engine and compare against the exact (naive) algorithm.
//
//   ./quickstart [--atoms N] [--eps 0.9] [--pdb file.pdb]
//
// Demonstrates the core 4-step API:
//   1. get a molecule (synthetic or from a PDB file),
//   2. sample its surface with Gaussian quadrature points,
//   3. build a GBEngine,
//   4. compute() → Epol + per-atom Born radii.

#include <cstdio>
#include <exception>

#include "octgb/octgb.hpp"

using namespace octgb;

int main(int argc, char** argv) try {
  int atoms = 1000;
  double eps = 0.9;
  std::string pdb_path;
  util::Args args;
  args.add("atoms", &atoms, "synthetic protein size (ignored with --pdb)");
  args.add("eps", &eps, "approximation parameter for both phases");
  args.add("pdb", &pdb_path, "read this PDB file instead of synthesizing");
  args.parse(argc, argv);

  // 1. Molecule.
  const mol::Molecule molecule =
      pdb_path.empty()
          ? mol::generate_protein(
                {.target_atoms = static_cast<std::size_t>(atoms), .seed = 1})
          : mol::read_pdb_file(pdb_path);
  std::printf("molecule: %s, %zu atoms, net charge %+.2f e\n",
              molecule.name().c_str(), molecule.size(),
              molecule.net_charge());

  // 2. Surface quadrature points.
  const surface::Surface surf = surface::build_surface(molecule);
  std::printf("surface: %zu quadrature points, exposed area %.1f A^2\n",
              surf.size(), surf.total_area());

  // 3. Engine with the requested approximation parameter.
  core::EngineConfig config;
  config.approx.eps_born = eps;
  config.approx.eps_epol = eps;
  core::GBEngine engine(molecule, surf, config);

  // 4. Octree-approximated energy.
  perf::Timer timer;
  const core::EnergyResult result = engine.compute();
  std::printf("\noctree Epol  = %12.2f kcal/mol   (%s, %llu interactions)\n",
              result.epol, util::human_seconds(timer.seconds()).c_str(),
              static_cast<unsigned long long>(
                  result.work.total_interactions()));

  // Exact reference for comparison.
  timer.reset();
  const auto naive_born = core::naive_born_radii(molecule, surf);
  const double naive_e = core::naive_epol(molecule, naive_born);
  std::printf("naive  Epol  = %12.2f kcal/mol   (%s, exact)\n", naive_e,
              util::human_seconds(timer.seconds()).c_str());
  std::printf("difference   = %12.4f %%\n",
              perf::percent_error(result.epol, naive_e));

  // Born radius summary.
  perf::RunStats radii;
  for (double r : result.born) radii.add(r);
  std::printf(
      "\nBorn radii: min %.2f A, mean %.2f A, max %.2f A over %zu atoms\n",
      radii.min(), radii.mean(), radii.max(), result.born.size());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
