// Docking scan: the use case the paper's introduction motivates — scoring
// a ligand at many poses around a receptor.
//
// One ScoringSession holds the complex; each pose is a rigid transform of
// the ligand *relative to its base placement* (the paper: "we can move the
// same octree to different positions or rotate it ... and then recompute
// the energy values"). PoseMode::CrossScreen freezes each body's Born
// radii at its isolated base evaluation, so a pose costs one rigid octree
// refit plus a cross-tree Epol traversal; the best pose is then re-scored
// in PoseMode::Full as a check. The pose with the most negative
// ΔEpol = Epol(complex) − Epol(receptor) − Epol(ligand) wins.

#include <cstdio>
#include <exception>

#include "octgb/octgb.hpp"

using namespace octgb;

int main(int argc, char** argv) try {
  int receptor_atoms = 2000;
  int ligand_atoms = 300;
  int poses = 12;
  util::Args args;
  args.add("receptor-atoms", &receptor_atoms, "receptor size");
  args.add("ligand-atoms", &ligand_atoms, "ligand size");
  args.add("poses", &poses, "number of poses to score");
  args.parse(argc, argv);

  const mol::Molecule receptor = mol::generate_protein(
      {.target_atoms = static_cast<std::size_t>(receptor_atoms), .seed = 7});
  mol::Molecule ligand = mol::generate_protein(
      {.target_atoms = static_cast<std::size_t>(ligand_atoms), .seed = 8});

  // Contact geometry: poses live on a sphere around the receptor.
  const geom::Vec3 center = receptor.centroid();
  double receptor_radius = 0.0;
  for (const auto& a : receptor.atoms())
    receptor_radius =
        std::max(receptor_radius, geom::dist(a.pos, center) + a.radius);
  double ligand_radius = 0.0;
  geom::Vec3 lig_center = ligand.centroid();
  for (const auto& a : ligand.atoms())
    ligand_radius =
        std::max(ligand_radius, geom::dist(a.pos, lig_center) + a.radius);
  const double contact = receptor_radius + 0.65 * ligand_radius;

  // Base placement: ligand at the +x contact point. All pose transforms
  // are relative to these coordinates.
  ligand.transform(geom::RigidTransform::translate(
      center + geom::Vec3{contact, 0, 0} - lig_center));
  lig_center = ligand.centroid();

  mol::Molecule complex_mol(receptor.name() + "+" + ligand.name());
  for (const auto& a : receptor.atoms()) complex_mol.add_atom(a);
  const std::size_t ligand_begin = complex_mol.size();
  for (const auto& a : ligand.atoms()) complex_mol.add_atom(a);

  core::ScoringSession session(complex_mol,
                               surface::build_surface(complex_mol));
  std::printf("receptor: %zu atoms, ligand: %zu atoms, %d poses\n\n",
              receptor.size(), ligand.size(), poses);

  // Pose p: rotate the ligand about its own center, then carry it from the
  // +x contact point to the (yaw, pitch) point on the contact sphere.
  std::vector<geom::RigidTransform> pose_list;
  std::vector<double> yaws, pitches;
  util::Xoshiro256 rng(123);
  for (int pose = 0; pose < poses; ++pose) {
    const double yaw = 2.0 * 3.14159265 * pose / poses;
    const double pitch = rng.uniform(-0.6, 0.6);
    const geom::Vec3 dir{std::cos(yaw) * std::cos(pitch),
                         std::sin(yaw) * std::cos(pitch), std::sin(pitch)};
    const geom::RigidTransform spin =
        geom::RigidTransform::translate(lig_center) *
        geom::RigidTransform::rotate(geom::Mat3::axis_angle({0, 0, 1}, yaw)) *
        geom::RigidTransform::translate(-lig_center);
    pose_list.push_back(
        geom::RigidTransform::translate(center + dir * contact - lig_center) *
        spin);
    yaws.push_back(yaw);
    pitches.push_back(pitch);
  }

  const auto scores = session.score_poses(pose_list, ligand_begin,
                                          core::PoseMode::CrossScreen);

  util::Table t("docking scan (rigid poses on a sphere around the receptor)");
  t.header({"pose", "yaw", "pitch", "Epol(complex)", "dEpol", "ms"});
  double best = 1e300;
  std::size_t best_pose = 0;
  for (const auto& s : scores) {
    if (s.delta < best) {
      best = s.delta;
      best_pose = s.pose;
    }
    t.row({util::format("%zu", s.pose), util::format("%.2f", yaws[s.pose]),
           util::format("%.2f", pitches[s.pose]),
           util::format("%.1f", s.epol), util::format("%+.1f", s.delta),
           util::format("%.2f", 1e3 * s.wall_seconds)});
  }
  t.print();

  // Re-score the winner with the full pipeline (rigid surface, refit
  // trees, complete Born + Epol) to confirm the screening ranking.
  const geom::RigidTransform winner = pose_list[best_pose];
  const auto full =
      session.score_poses({&winner, 1}, ligand_begin, core::PoseMode::Full);
  std::printf("\nbest pose: #%zu with dEpol = %+.1f kcal/mol "
              "(full re-score: Epol %.1f kcal/mol)\n",
              best_pose, best, full[0].epol);
  std::printf("tree maintenance: %zu refits, %zu rebuilds\n",
              session.move_stats().refits, session.move_stats().rebuilds);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
