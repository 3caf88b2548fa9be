// Tests for the extension features: the data-distribution variant
// (paper's future work), dynamic octree refitting [8], and
// external-Born-radius energy evaluation.

#include <gtest/gtest.h>

#include <cmath>

#include "octgb/baselines/descreening.hpp"
#include "octgb/core/data_distributed.hpp"
#include "octgb/core/engine.hpp"
#include "octgb/core/epol.hpp"
#include "octgb/core/naive.hpp"
#include "octgb/core/session.hpp"
#include "octgb/mol/generate.hpp"
#include "octgb/octree/dynamic.hpp"
#include "octgb/surface/surface.hpp"
#include "octgb/util/rng.hpp"
#include "octgb/ws/scheduler.hpp"

using namespace octgb;
using core::GBEngine;

namespace {

struct Problem {
  mol::Molecule molecule;
  surface::Surface surf;
  explicit Problem(std::size_t atoms, std::uint64_t seed = 61)
      : molecule(mol::generate_protein({.target_atoms = atoms, .seed = seed})),
        surf(surface::build_surface(molecule, {.subdivision = 1})) {}
};

}  // namespace

// ---- data distribution --------------------------------------------------------

TEST(DataDistributed, OwnedDataPartitionsTheProblem) {
  const Problem p(900);
  GBEngine engine(p.molecule, p.surf);
  const auto dd = core::run_data_distributed(engine, 4);
  std::size_t atoms = 0, qpoints = 0;
  for (const auto& r : dd.ranks) {
    atoms += r.owned_atoms;
    qpoints += r.owned_qpoints;
  }
  EXPECT_EQ(atoms, engine.num_atoms());
  EXPECT_EQ(qpoints, engine.qpoints_tree().num_points());
}

TEST(DataDistributed, PerRankMemoryBelowReplication) {
  // The point of distributing data: even with ghosts, the worst rank
  // holds less than a full replica (for enough ranks).
  const Problem p(3000);
  GBEngine engine(p.molecule, p.surf);
  const auto dd = core::run_data_distributed(engine, 8);
  EXPECT_LT(dd.max_rank_bytes(), dd.replicated_bytes_per_rank);
}

TEST(DataDistributed, GhostsShrinkAsRanksGrow) {
  // More ranks → smaller owned regions → each rank's near field is a
  // larger *fraction* of its data but smaller in absolute bytes than the
  // whole molecule.
  const Problem p(2000);
  GBEngine engine(p.molecule, p.surf);
  const auto dd2 = core::run_data_distributed(engine, 2);
  const auto dd8 = core::run_data_distributed(engine, 8);
  std::size_t worst2 = 0, worst8 = 0;
  for (const auto& r : dd2.ranks)
    worst2 = std::max(worst2, r.owned_bytes + r.ghost_bytes);
  for (const auto& r : dd8.ranks)
    worst8 = std::max(worst8, r.owned_bytes + r.ghost_bytes);
  EXPECT_LT(worst8, worst2);
}

TEST(DataDistributed, NearLeavesCoverNonFarRegions) {
  // Property: for every (Q leaf, T_A leaf) pair that fails the far test
  // at the leaf level, the T_A leaf must be in the collected near set.
  const Problem p(400);
  GBEngine engine(p.molecule, p.surf);
  const auto& ta = engine.atoms_tree();
  const auto& tq = engine.qpoints_tree();
  const auto& q_leaves = engine.q_leaves();
  const double eps = engine.config().approx.eps_born;
  const auto near =
      core::collect_near_ta_leaves(ta, tq, q_leaves, eps, false);
  std::vector<bool> in_near(ta.tree.nodes().size(), false);
  for (auto id : near) in_near[id] = true;
  const double threshold = core::born_threshold(eps, false);
  for (std::uint32_t q_id : q_leaves) {
    const auto& qn = tq.tree.node(q_id);
    for (std::uint32_t a_id : ta.tree.leaf_ids()) {
      const auto& an = ta.tree.node(a_id);
      const double d = geom::dist(an.centroid, qn.centroid);
      if (!core::born_far_enough(d, an.radius, qn.radius, threshold)) {
        EXPECT_TRUE(in_near[a_id])
            << "leaf " << a_id << " near q-leaf " << q_id
            << " missing from near set";
      }
    }
  }

  // Exact: summed over single-Q-leaf calls, the collected leaves carry
  // exactly the pairs the Born walk evaluates exactly.
  std::uint64_t pairs = 0;
  for (std::uint32_t q_id : q_leaves) {
    for (std::uint32_t a_id :
         core::collect_near_ta_leaves(ta, tq, {&q_id, 1}, eps, false))
      pairs += std::uint64_t{ta.tree.node(a_id).size()} *
               tq.tree.node(q_id).size();
  }
  std::vector<double> node_s(engine.num_ta_nodes(), 0.0);
  std::vector<double> atom_s(engine.num_atoms(), 0.0);
  perf::WorkCounters work;
  core::approx_integrals(ta, tq, q_leaves, eps, false, node_s, atom_s, work);
  EXPECT_EQ(pairs, work.born_exact);

  // The collector runs the forking Born walk: same list under a scheduler.
  ws::Scheduler sched(4);
  std::vector<std::uint32_t> par;
  sched.run([&] {
    par = core::collect_near_ta_leaves(ta, tq, q_leaves, eps, false);
  });
  EXPECT_EQ(par, near);
}

TEST(DataDistributed, NearEpolLeavesMatchTheEpolWalk) {
  // Summed over single-V-leaf calls, the collected leaves carry exactly
  // the pairs the plain Epol descent evaluates exactly.
  const Problem p(400);
  GBEngine engine(p.molecule, p.surf);
  const auto& ta = engine.atoms_tree();
  const double eps = engine.config().approx.eps_epol;
  const auto born = engine.compute().born;
  const auto idx = ta.tree.point_index();
  std::vector<double> born_tree(born.size());
  for (std::size_t pos = 0; pos < idx.size(); ++pos)
    born_tree[pos] = born[idx[pos]];
  const auto ctx = engine.build_epol_context(born_tree);

  std::uint64_t pairs = 0;
  for (std::uint32_t v_id : engine.a_leaves()) {
    for (std::uint32_t u_id :
         core::collect_near_epol_leaves(ta, {&v_id, 1}, eps))
      pairs += std::uint64_t{ta.tree.node(u_id).size()} *
               ta.tree.node(v_id).size();
  }
  perf::WorkCounters work;
  core::approx_epol_atom_based(
      ta, ctx, born_tree, 0, static_cast<std::uint32_t>(engine.num_atoms()),
      eps, false, engine.config().gb, work);
  EXPECT_EQ(pairs, work.epol_exact);

  const auto near = core::collect_near_epol_leaves(ta, engine.a_leaves(), eps);
  ws::Scheduler sched(4);
  std::vector<std::uint32_t> par;
  sched.run(
      [&] { par = core::collect_near_epol_leaves(ta, engine.a_leaves(), eps); });
  EXPECT_EQ(par, near);
}

// ---- dynamic octree -------------------------------------------------------------
//
// The session's tree-update pair: Octree::refit moves the points, and a
// RefitMonitor decides when the drift warrants a rebuild.

TEST(DynamicOctree, RefitTracksSmallDisplacements) {
  util::Xoshiro256 rng(71);
  std::vector<geom::Vec3> pts(600);
  for (auto& v : pts)
    v = {rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-20, 20)};
  octree::Octree tree = octree::Octree::build(pts);
  const octree::RefitMonitor monitor(tree);

  // Jiggle by 0.05 Å — typical MD step scale.
  for (auto& v : pts)
    v += geom::Vec3{rng.normal(), rng.normal(), rng.normal()} * 0.05;
  tree.refit(pts);
  EXPECT_FALSE(monitor.should_rebuild(tree));
  EXPECT_TRUE(tree.validate());
  for (std::size_t pos = 0; pos < tree.num_points(); ++pos)
    EXPECT_EQ(tree.point(pos), pts[tree.point_index()[pos]]);
}

TEST(DynamicOctree, RefitRadiiStillEncloseAllPoints) {
  util::Xoshiro256 rng(72);
  std::vector<geom::Vec3> pts(500);
  for (auto& v : pts)
    v = {rng.uniform(-15, 15), rng.uniform(-15, 15), rng.uniform(-15, 15)};
  octree::Octree tree = octree::Octree::build(pts);
  octree::RefitMonitor monitor(tree);
  for (int step = 0; step < 5; ++step) {
    for (auto& v : pts)
      v += geom::Vec3{rng.normal(), rng.normal(), rng.normal()} * 0.1;
    tree.refit(pts);
    if (monitor.should_rebuild(tree)) {
      tree = octree::Octree::build(pts);
      monitor.rebase(tree);
    }
    EXPECT_TRUE(tree.validate()) << "step " << step;
  }
}

TEST(DynamicOctree, LargeMotionTriggersRebuild) {
  util::Xoshiro256 rng(73);
  std::vector<geom::Vec3> pts(400);
  for (auto& v : pts)
    v = {rng.uniform(-15, 15), rng.uniform(-15, 15), rng.uniform(-15, 15)};
  octree::Octree tree = octree::Octree::build(pts);
  octree::RefitMonitor monitor(tree);
  // Blow the molecule apart: every leaf inflates far past the threshold.
  for (auto& v : pts) v = v * 4.0 + geom::Vec3{rng.normal() * 10, 0, 0};
  tree.refit(pts);
  ASSERT_TRUE(monitor.should_rebuild(tree));
  tree = octree::Octree::build(pts);
  monitor.rebase(tree);
  EXPECT_TRUE(tree.validate());
  EXPECT_FALSE(monitor.should_rebuild(tree));
}

TEST(DynamicOctree, RefittedTreeGivesSameEnergyAsRebuilt) {
  // The refit keeps admissibility sound: energies from a refitted tree
  // match a from-scratch build on the same coordinates to approximation
  // tolerance.
  const Problem base(500);
  std::vector<geom::Vec3> moved(base.molecule.size());
  util::Xoshiro256 rng(74);
  for (std::size_t i = 0; i < moved.size(); ++i)
    moved[i] = base.molecule.atom(i).pos +
               geom::Vec3{rng.normal(), rng.normal(), rng.normal()} * 0.02;

  mol::Molecule moved_mol = base.molecule;
  for (std::size_t i = 0; i < moved.size(); ++i)
    moved_mol.atoms()[i].pos = moved[i];
  const auto moved_surf = surface::build_surface(moved_mol,
                                                 {.subdivision = 1});
  GBEngine rebuilt(moved_mol, moved_surf);
  const double e_rebuilt = rebuilt.compute().epol;

  // Refit path: same molecule/surface but tree topology from the original
  // coordinates.
  core::AtomsTree refit_ta = core::AtomsTree::build(base.molecule, {});
  refit_ta.tree.refit(moved);
  // Energies via the kernels directly (radii from the rebuilt engine,
  // isolating the tree-structure difference).
  perf::WorkCounters wc;
  const auto born = rebuilt.compute().born;
  std::vector<double> born_tree(born.size());
  const auto idx = refit_ta.tree.point_index();
  for (std::size_t pos = 0; pos < idx.size(); ++pos)
    born_tree[pos] = born[idx[pos]];
  const auto ctx = core::EpolContext::build(refit_ta, born_tree, 0.9);
  const double e_refit =
      core::approx_epol(refit_ta, ctx, born_tree,
                        refit_ta.tree.leaf_ids(), 0.9, false, {}, wc);
  EXPECT_NEAR(e_refit, e_rebuilt, 0.01 * std::abs(e_rebuilt));
}

TEST(DynamicOctree, RefitThroughScoringSessionMatchesRebuilt) {
  // The same refit-tolerance contract, exercised through the stage-3
  // driver: ScoringSession::update() refits the engine's trees in place
  // (RefitMonitor deciding refit vs rebuild) and the re-evaluated energy
  // must match a cold engine built from the moved coordinates within the
  // documented ≤ 1 % bound.
  const Problem base(500);
  util::Xoshiro256 rng(74);
  std::vector<geom::Vec3> moved(base.molecule.size());
  for (std::size_t i = 0; i < moved.size(); ++i)
    moved[i] = base.molecule.atom(i).pos +
               geom::Vec3{rng.normal(), rng.normal(), rng.normal()} * 0.02;
  mol::Molecule moved_mol = base.molecule;
  for (std::size_t i = 0; i < moved.size(); ++i)
    moved_mol.atoms()[i].pos = moved[i];
  const auto moved_surf = surface::build_surface(moved_mol,
                                                 {.subdivision = 1});

  core::ScoringSession session(base.molecule, base.surf);
  session.evaluate();
  session.update(moved, moved_surf);
  const double e_refit = session.evaluate().epol;

  GBEngine rebuilt(moved_mol, moved_surf);
  const double e_rebuilt = rebuilt.compute().epol;
  EXPECT_NEAR(e_refit, e_rebuilt, 0.01 * std::abs(e_rebuilt));
}

// ---- external Born radii ---------------------------------------------------------

TEST(EpolWithRadii, MatchesNaiveEpolOnSameRadii) {
  const Problem p(500);
  GBEngine engine(p.molecule, p.surf);
  // Use HCT radii — a different GB model feeding the same octree kernel.
  std::vector<geom::Vec3> centers(p.molecule.size());
  for (std::size_t i = 0; i < centers.size(); ++i)
    centers[i] = p.molecule.atom(i).pos;
  const auto nb = octree::NbList::build(centers, {.cutoff = 20.0,
                                                  .max_bytes = 0});
  const auto hct = baselines::pairwise_born_radii(p.molecule, nb,
                                                  baselines::BornModel::HCT);
  perf::WorkCounters wc;
  const double octree_e = engine.epol_with_radii(hct, wc);
  const double naive_e = core::naive_epol(p.molecule, hct);
  EXPECT_NEAR(octree_e, naive_e, 0.01 * std::abs(naive_e));
}

TEST(EpolWithRadii, UniformRadiiClosedFormCrossCheck) {
  // All radii equal R: the self-energy part is exactly −τ/2 Σq²/R.
  const Problem p(300);
  GBEngine engine(p.molecule, p.surf);
  std::vector<double> radii(p.molecule.size(), 3.0);
  perf::WorkCounters wc;
  const double octree_e = engine.epol_with_radii(radii, wc);
  const double naive_e = core::naive_epol(p.molecule, radii);
  EXPECT_NEAR(octree_e, naive_e, 0.01 * std::abs(naive_e));
}
