// Energy minimization with GB forces: steepest descent on the
// polarization energy (frozen Born radii per outer iteration, the
// standard MD-package approximation), refreshing radii and the octree
// every few steps — the "minimal total free energy" workflow the paper's
// introduction motivates.

#include <cstdio>
#include <exception>

#include "octgb/octgb.hpp"

using namespace octgb;

int main(int argc, char** argv) try {
  int atoms = 500;
  int outer = 5;
  int inner = 4;
  util::Args args;
  args.add("atoms", &atoms, "synthetic protein size");
  args.add("outer", &outer, "outer iterations (radius refresh)");
  args.add("inner", &inner, "descent steps per outer iteration");
  args.parse(argc, argv);

  mol::Molecule molecule = mol::generate_protein(
      {.target_atoms = static_cast<std::size_t>(atoms), .seed = 66});
  std::printf("minimizing Epol of %zu atoms (%d x %d steps)\n\n",
              molecule.size(), outer, inner);

  util::Table t("steepest descent on Epol (frozen radii per outer step)");
  t.header({"outer", "inner", "Epol", "max |F|", "step (A)"});

  double previous = 0.0;
  for (int o = 0; o < outer; ++o) {
    // Refresh surface, octrees and Born radii at the current geometry.
    const auto surf = surface::build_surface(molecule);
    core::GBEngine engine(molecule, surf);
    const auto state = engine.compute();
    std::vector<double> born = state.born;
    double e = state.epol;
    if (o == 0) previous = e;

    for (int i = 0; i < inner; ++i) {
      perf::WorkCounters wc;
      const auto forces = core::approx_epol_forces(engine, born, wc);
      double fmax = 0.0;
      for (const auto& f : forces) fmax = std::max(fmax, f.norm());
      if (fmax < 1e-9) break;
      // Conservative step: move the strongest-pulled atom 0.02 Å.
      const double step = 0.02 / fmax;
      for (std::size_t a = 0; a < molecule.size(); ++a)
        molecule.atoms()[a].pos += forces[a] * step;
      e = core::naive_epol(molecule, born);
      t.row({util::format("%d", o), util::format("%d", i),
             util::format("%.2f", e), util::format("%.3f", fmax),
             util::format("%.4f", step * fmax)});
    }
  }
  t.print();
  const double final_e = core::naive_epol(
      molecule,
      core::naive_born_radii(molecule, surface::build_surface(molecule)));
  std::printf("\nEpol: %.2f -> %.2f kcal/mol (%+.2f)\n", previous, final_e,
              final_e - previous);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
