// Flexible-molecule workflow (the paper's ref [8] use case): run a toy
// Brownian trajectory and re-evaluate the GB energy every step through one
// ScoringSession. The session keeps the atoms and quadrature octrees alive
// via O(n) refits — the RefitMonitor quality policy triggers a rebuild
// when the structure drifts too far — and reuses its EvalScratch, so the
// steady-state loop grows no scratch buffer.

#include <cstdio>

#include "octgb/octgb.hpp"

using namespace octgb;

int main(int argc, char** argv) {
  int atoms = 1500;
  int steps = 20;
  double step_sigma = 0.08;  // Å per step, thermal-jiggle scale
  util::Args args;
  args.add("atoms", &atoms, "synthetic protein size");
  args.add("steps", &steps, "trajectory steps");
  args.add("sigma", &step_sigma, "per-step displacement sigma (A)");
  args.parse(argc, argv);

  mol::Molecule molecule = mol::generate_protein(
      {.target_atoms = static_cast<std::size_t>(atoms), .seed = 55});
  std::printf("molecule: %zu atoms, %d steps, sigma %.2f A\n\n",
              molecule.size(), steps, step_sigma);

  // Trees are built once here; every step below refits them in place.
  // The surface is re-sampled each step (exposure changes as atoms move),
  // and the session refits its quadrature tree to the new points as long
  // as the sample count is stable.
  core::ScoringSession session(molecule, surface::build_surface(molecule));

  std::vector<geom::Vec3> positions(molecule.size());
  for (std::size_t i = 0; i < molecule.size(); ++i)
    positions[i] = molecule.atom(i).pos;

  util::Table t("trajectory (session refit per step)");
  t.header({"step", "Epol", "scratch bytes", "action"});

  util::Xoshiro256 rng(99);
  for (int step = 0; step < steps; ++step) {
    // Brownian kick.
    for (auto& p : positions)
      p += geom::Vec3{rng.normal(), rng.normal(), rng.normal()} * step_sigma;
    for (std::size_t i = 0; i < molecule.size(); ++i)
      molecule.atoms()[i].pos = positions[i];

    const core::MoveStats before = session.move_stats();
    session.update(positions, surface::build_surface(molecule));
    const auto r = session.evaluate();
    const core::MoveStats after = session.move_stats();

    t.row({util::format("%d", step), util::format("%.1f", r.epol),
           util::format("%zu", session.scratch().footprint_bytes()),
           util::format("%zu refit, %zu rebuild",
                        after.refits - before.refits,
                        after.rebuilds - before.rebuilds)});
  }
  t.print();
  std::printf("\nrefits: %zu, rebuilds: %zu — the atoms tree rides O(n) "
              "refits for thermal-scale motion; the quadrature tree rebuilds "
              "only when re-sampling changes the surface point count.\n"
              "scratch allocation events: %zu (steady state grows no "
              "scratch buffer)\n",
              session.move_stats().refits, session.move_stats().rebuilds,
              session.scratch().allocation_events);
  return 0;
}
