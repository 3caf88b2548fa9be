#include "octgb/core/session.hpp"

#include <utility>

#include "octgb/perf/stats.hpp"
#include "octgb/surface/surface.hpp"
#include "octgb/trace/trace.hpp"
#include "octgb/util/check.hpp"

namespace octgb::core {

namespace {

bool same_eval_params(const ApproxParams& a, const ApproxParams& b) {
  return a.eps_born == b.eps_born && a.eps_epol == b.eps_epol &&
         a.approx_math == b.approx_math &&
         a.strict_born_criterion == b.strict_born_criterion &&
         a.kernel == b.kernel && a.vector == b.vector;
}

mol::Molecule body_molecule(const mol::Molecule& mol,
                            std::span<const geom::Vec3> base_pos,
                            std::size_t begin, std::size_t end,
                            const char* name) {
  mol::Molecule body(name);
  body.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    mol::Atom a = mol.atom(i);
    a.pos = base_pos[i];
    body.add_atom(a);
  }
  return body;
}

}  // namespace

/// Frozen-monomer caches for CrossScreen: each body's isolated engine,
/// Born radii, and Epol bin table at the base coordinates. Rigid motion
/// preserves intra-body distances, so the radii and the bin layout survive
/// per-pose ligand refits intact. The ligand table's moments about its
/// leaf centroids (P, U, Θ) turn with the pose; approx_epol_cross
/// recomputes them from the refit tree.
struct ScoringSession::ScreenState {
  std::size_t ligand_begin = 0;
  ApproxParams approx_at_build;
  mol::Molecule lig_mol;  ///< ligand body, mutated only on rebuilds
  GBEngine rec_engine;
  GBEngine lig_engine;
  double e_rec = 0.0;  ///< Epol of the isolated receptor body
  double e_lig = 0.0;  ///< Epol of the isolated ligand body
  std::vector<double> rec_born_tree, lig_born_tree;  ///< tree order
  std::vector<double> lig_born_input;  ///< survives ligand-tree rebuilds
  EpolContext rec_ctx, lig_ctx;
  std::vector<geom::Vec3> lig_base_pos;  ///< ligand body base positions
  std::vector<geom::Vec3> pose_pos;      ///< per-pose staging buffer
  octree::RefitMonitor lig_monitor;

  ScreenState(GBEngine rec, GBEngine lig)
      : rec_engine(std::move(rec)), lig_engine(std::move(lig)) {}
};

ScoringSession::ScoringSession(const mol::Molecule& mol,
                               const surface::Surface& surf,
                               EngineConfig config,
                               surface::SurfaceParams surface_params)
    : mol_(mol),
      surf_(surf),
      engine_(mol, surf, config),
      surface_params_(surface_params),
      atoms_monitor_(engine_.atoms_tree().tree),
      qpoints_monitor_(engine_.qpoints_tree().tree) {
  snapshot_base();
}

ScoringSession::~ScoringSession() = default;

std::size_t ScoringSession::footprint_bytes() const {
  std::size_t bytes = mol_.footprint_bytes() + surf_.footprint_bytes() +
                      engine_.footprint_bytes() + scratch_.footprint_bytes();
  bytes += (base_atom_pos_.capacity() + base_q_pos_.capacity() +
            base_q_normal_.capacity() + pose_pos_.capacity()) *
           sizeof(geom::Vec3);
  if (screen_) {
    bytes += screen_->rec_engine.footprint_bytes() +
             screen_->lig_engine.footprint_bytes() +
             (screen_->rec_born_tree.capacity() +
              screen_->lig_born_tree.capacity() +
              screen_->lig_born_input.capacity()) *
                 sizeof(double);
  }
  return bytes;
}

void ScoringSession::snapshot_base() {
  base_atom_pos_.resize(mol_.size());
  for (std::size_t i = 0; i < mol_.size(); ++i)
    base_atom_pos_[i] = mol_.atom(i).pos;
  base_q_pos_ = surf_.positions;
  base_q_normal_ = surf_.normals;
  screen_.reset();  // frozen-monomer caches are base-coordinate artifacts
}

EvalResult ScoringSession::evaluate(ws::Scheduler* sched) {
  return engine_.compute(scratch_, sched);
}

EvalResult ScoringSession::evaluate_at(const ApproxParams& approx,
                                       ws::Scheduler* sched) {
  engine_.approx() = approx;
  return engine_.compute(scratch_, sched);
}

bool ScoringSession::update(std::span<const geom::Vec3> positions,
                            const surface::Surface& surf) {
  OCTGB_CHECK_MSG(positions.size() == mol_.size(),
                  "atom count changed; start a new session");
  bool rebuilt = false;
  for (std::size_t i = 0; i < mol_.size(); ++i)
    mol_.atoms()[i].pos = positions[i];
  engine_.refit_atoms(positions);
  ++stats_.refits;
  if (atoms_monitor_.should_rebuild(engine_.atoms_tree().tree)) {
    engine_.rebuild_atoms(mol_);
    atoms_monitor_.rebase(engine_.atoms_tree().tree);
    ++stats_.rebuilds;
    rebuilt = true;
  }

  surf_ = surf;
  if (surf_.size() == engine_.qpoints_tree().num_points()) {
    engine_.refit_qpoints(surf_);
    ++stats_.refits;
    if (qpoints_monitor_.should_rebuild(engine_.qpoints_tree().tree)) {
      engine_.rebuild_qpoints(surf_);
      qpoints_monitor_.rebase(engine_.qpoints_tree().tree);
      ++stats_.rebuilds;
      rebuilt = true;
    }
  } else {
    // Point count changed (exposure/resampling): refit is impossible.
    engine_.rebuild_qpoints(surf_);
    qpoints_monitor_.rebase(engine_.qpoints_tree().tree);
    ++stats_.rebuilds;
    rebuilt = true;
  }

  snapshot_base();
  return rebuilt;
}

bool ScoringSession::apply_pose(const geom::RigidTransform& pose,
                                std::size_t ligand_begin) {
  OCTGB_CHECK_MSG(ligand_begin < mol_.size(),
                  "ligand_begin past the end of the molecule");
  bool rebuilt = false;

  pose_pos_.resize(mol_.size());
  for (std::size_t i = 0; i < ligand_begin; ++i)
    pose_pos_[i] = base_atom_pos_[i];
  for (std::size_t i = ligand_begin; i < mol_.size(); ++i)
    pose_pos_[i] = pose.apply(base_atom_pos_[i]);
  for (std::size_t i = 0; i < mol_.size(); ++i)
    mol_.atoms()[i].pos = pose_pos_[i];

  engine_.refit_atoms(pose_pos_);
  ++stats_.refits;
  if (atoms_monitor_.should_rebuild(engine_.atoms_tree().tree)) {
    engine_.rebuild_atoms(mol_);
    atoms_monitor_.rebase(engine_.atoms_tree().tree);
    ++stats_.rebuilds;
    rebuilt = true;
  }

  // Rigid-surface approximation: the ligand's surface points move with
  // their owner atoms, weights kept; interface exposure changes are
  // neglected (documented in DESIGN.md).
  for (std::size_t k = 0; k < surf_.size(); ++k) {
    if (surf_.owner_atom[k] >= ligand_begin) {
      surf_.positions[k] = pose.apply(base_q_pos_[k]);
      surf_.normals[k] = pose.apply_dir(base_q_normal_[k]);
    } else {
      surf_.positions[k] = base_q_pos_[k];
      surf_.normals[k] = base_q_normal_[k];
    }
  }
  engine_.refit_qpoints(surf_);
  ++stats_.refits;
  if (qpoints_monitor_.should_rebuild(engine_.qpoints_tree().tree)) {
    engine_.rebuild_qpoints(surf_);
    qpoints_monitor_.rebase(engine_.qpoints_tree().tree);
    ++stats_.rebuilds;
    rebuilt = true;
  }
  return rebuilt;
}

void ScoringSession::reset_to_base() {
  apply_pose(geom::RigidTransform::identity(),
             /*ligand_begin=*/mol_.size() - 1);
  // The identity pose restores every coordinate (receptor atoms are
  // always reset to base; the "ligand" tail maps to itself).
}

ScoringSession::ScreenState& ScoringSession::ensure_screen_state(
    std::size_t ligand_begin) {
  OCTGB_CHECK_MSG(ligand_begin > 0 && ligand_begin < mol_.size(),
                  "ligand_begin must split the molecule into two bodies");
  const ApproxParams& approx = engine_.config().approx;
  if (screen_ && screen_->ligand_begin == ligand_begin &&
      same_eval_params(screen_->approx_at_build, approx))
    return *screen_;

  OCTGB_SPAN("session.screen_state");
  mol::Molecule rec_mol =
      body_molecule(mol_, base_atom_pos_, 0, ligand_begin, "receptor");
  mol::Molecule lig_mol = body_molecule(mol_, base_atom_pos_, ligand_begin,
                                        mol_.size(), "ligand");
  const surface::Surface rec_surf =
      surface::build_surface(rec_mol, surface_params_);
  const surface::Surface lig_surf =
      surface::build_surface(lig_mol, surface_params_);

  auto st = std::make_unique<ScreenState>(
      GBEngine(rec_mol, rec_surf, engine_.config()),
      GBEngine(lig_mol, lig_surf, engine_.config()));
  st->ligand_begin = ligand_begin;
  st->approx_at_build = approx;

  // Isolated-body evaluations at base coordinates; the Born radii and bin
  // layouts are frozen for the rest of the pose stream.
  const EvalResult rec = st->rec_engine.compute(scratch_);
  st->e_rec = rec.epol;
  st->rec_born_tree.assign(scratch_.born_tree.begin(),
                           scratch_.born_tree.end());
  st->rec_ctx = scratch_.epol_ctx;

  const EvalResult lig = st->lig_engine.compute(scratch_);
  st->e_lig = lig.epol;
  st->lig_born_tree.assign(scratch_.born_tree.begin(),
                           scratch_.born_tree.end());
  st->lig_born_input.assign(lig.born.begin(), lig.born.end());
  st->lig_ctx = scratch_.epol_ctx;

  st->lig_mol = std::move(lig_mol);
  st->lig_base_pos.resize(st->lig_mol.size());
  for (std::size_t i = 0; i < st->lig_mol.size(); ++i)
    st->lig_base_pos[i] = st->lig_mol.atom(i).pos;
  st->lig_monitor.rebase(st->lig_engine.atoms_tree().tree);

  screen_ = std::move(st);
  return *screen_;
}

PoseScore ScoringSession::score_pose_full(const geom::RigidTransform& pose,
                                          std::size_t ligand_begin,
                                          double e_bodies,
                                          ws::Scheduler* sched) {
  perf::Timer timer;
  PoseScore score;
  score.rebuilt = apply_pose(pose, ligand_begin);
  const EvalResult r = engine_.compute(scratch_, sched);
  score.epol = r.epol;
  score.delta = r.epol - e_bodies;
  score.wall_seconds = timer.seconds();
  return score;
}

PoseScore ScoringSession::score_pose_screen(const geom::RigidTransform& pose,
                                            ScreenState& st) {
  perf::Timer timer;
  PoseScore score;

  st.pose_pos.resize(st.lig_base_pos.size());
  for (std::size_t i = 0; i < st.lig_base_pos.size(); ++i)
    st.pose_pos[i] = pose.apply(st.lig_base_pos[i]);
  st.lig_engine.refit_atoms(st.pose_pos);
  ++stats_.refits;
  // Rigid motion preserves intra-body distances, so leaf radii cannot
  // inflate; the rebuild branch only guards against numerically drifting
  // (near-rigid) transforms.
  if (st.lig_monitor.should_rebuild(st.lig_engine.atoms_tree().tree)) {
    for (std::size_t i = 0; i < st.lig_mol.size(); ++i)
      st.lig_mol.atoms()[i].pos = st.pose_pos[i];
    st.lig_engine.rebuild_atoms(st.lig_mol);
    st.lig_monitor.rebase(st.lig_engine.atoms_tree().tree);
    ++stats_.rebuilds;
    score.rebuilt = true;
    // The rebuild re-permutes the tree: remap the frozen input-order
    // radii and rebuild the bin table on the new leaves.
    const auto idx = st.lig_engine.atoms_tree().tree.point_index();
    for (std::size_t p = 0; p < idx.size(); ++p)
      st.lig_born_tree[p] = st.lig_born_input[idx[p]];
    st.lig_ctx.rebuild(st.lig_engine.atoms_tree(), st.lig_born_tree,
                       engine_.config().approx.eps_epol);
  }

  const ApproxParams& approx = engine_.config().approx;
  perf::WorkCounters counters;
  const double cross = approx_epol_cross(
      st.rec_engine.atoms_tree(), st.rec_ctx, st.rec_born_tree,
      st.lig_engine.atoms_tree(), st.lig_ctx, st.lig_born_tree,
      approx.eps_epol, approx.approx_math, engine_.config().gb, counters,
      approx.kernel, approx.vector);

  score.epol = st.e_rec + st.e_lig + cross;
  score.delta = cross;
  score.wall_seconds = timer.seconds();
  return score;
}

std::vector<PoseScore> ScoringSession::score_poses(
    std::span<const geom::RigidTransform> poses, std::size_t ligand_begin,
    PoseMode mode, ws::Scheduler* sched) {
  std::vector<PoseScore> scores;
  scores.reserve(poses.size());
  ScreenState& st = ensure_screen_state(ligand_begin);
  const double e_bodies = st.e_rec + st.e_lig;
  for (std::size_t p = 0; p < poses.size(); ++p) {
    OCTGB_SPAN("session.pose");
    PoseScore s = mode == PoseMode::Full
                      ? score_pose_full(poses[p], ligand_begin, e_bodies,
                                        sched)
                      : score_pose_screen(poses[p], st);
    s.pose = p;
    scores.push_back(s);
  }
  return scores;
}

}  // namespace octgb::core
