#pragma once
/// \file session.hpp
/// ScoringSession — the stage-3 driver tying the pipeline together:
/// stage 1 (Preprocessed trees) is built once, stage 2 (EvalScratch) is
/// owned and reused across calls, and every public entry point is an
/// evaluation against those artifacts.
///
/// Three workloads, in increasing order of reuse:
///
///  1. Parameter sweeps — evaluate()/evaluate_at() re-run the energy at
///     different ε/width/GB settings against the *same* trees ("once an
///     octree is built, it can be used for any approximation parameter").
///  2. Moved-atom re-scoring — update() refits the trees in place for new
///     coordinates (O(n), topology preserved) and rebuilds only when the
///     octree::RefitMonitor quality policy trips.
///  3. Pose streams — score_poses() scores rigid-body ligand poses
///     (docking rescoring) with a per-pose refit-or-rebuild decision and
///     a trace span per pose.
///
/// Pose modes (see DESIGN.md for the accuracy contract):
///  - PoseMode::Full — exact within the engine's ε: moves the ligand atoms
///    *and* their surface points rigidly (owner_atom ≥ ligand_begin),
///    refits/rebuilds the complex trees, and reruns the full Born + Epol
///    pipeline. Rigid-surface approximation: interface exposure changes
///    are neglected.
///  - PoseMode::CrossScreen — frozen-monomer screening: each body keeps
///    the Born radii and bin tables of its isolated base-coordinate
///    evaluation; a pose costs one rigid refit of the ligand tree plus a
///    cross-tree Epol traversal (approx_epol_cross). This is the classic
///    rigid-docking GB rescoring approximation — orders of magnitude
///    faster, with ΔEpol exact in the frozen-radii model.

#include <memory>
#include <vector>

#include "octgb/core/engine.hpp"
#include "octgb/geom/transform.hpp"
#include "octgb/octree/dynamic.hpp"

namespace octgb::core {

/// How score_poses() evaluates each pose.
enum class PoseMode {
  Full,         ///< full Born + Epol on the rigidly moved complex
  CrossScreen,  ///< frozen-monomer radii + cross-tree Epol per pose
};

/// Tree-maintenance counters across the session's lifetime.
struct MoveStats {
  std::size_t refits = 0;    ///< O(n) in-place refits (atoms + qpoints)
  std::size_t rebuilds = 0;  ///< quality-triggered from-scratch rebuilds
};

/// Score of one pose.
struct PoseScore {
  std::size_t pose = 0;   ///< index into the pose span
  double epol = 0.0;      ///< Epol of the complex, kcal/mol
  double delta = 0.0;     ///< epol − Epol(receptor) − Epol(ligand)
  bool rebuilt = false;   ///< this pose tripped a tree rebuild (Full mode)
  double wall_seconds = 0.0;
};

/// Reusable scoring context for one molecule + sampled surface.
///
/// The session copies the molecule and surface so it can move atoms and
/// surface points for update()/score_poses() without mutating the
/// caller's data; the coordinates at construction (or at the last
/// update()) are the *base* pose that score_poses() transforms are
/// relative to.
class ScoringSession {
 public:
  /// `surface_params` is only consulted when CrossScreen mode samples
  /// per-body surfaces; pass the parameters used to build `surf` so the
  /// monomer evaluations match the complex's resolution.
  ScoringSession(const mol::Molecule& mol, const surface::Surface& surf,
                 EngineConfig config = {},
                 surface::SurfaceParams surface_params = {});
  ~ScoringSession();

  ScoringSession(const ScoringSession&) = delete;
  ScoringSession& operator=(const ScoringSession&) = delete;

  GBEngine& engine() { return engine_; }
  const GBEngine& engine() const { return engine_; }
  EvalScratch& scratch() { return scratch_; }
  const mol::Molecule& molecule() const { return mol_; }
  const surface::Surface& surface() const { return surf_; }
  const MoveStats& move_stats() const { return stats_; }
  /// Interaction-plan cache statistics accumulated by this session's
  /// scratch (captures, replays, Born reuses, invalidations — see
  /// perf::PlanCounters and OBSERVABILITY.md).
  const perf::PlanCounters& plan_stats() const {
    return scratch_.plan_cache.stats;
  }

  /// Total bytes this warm session keeps resident: the copied molecule and
  /// surface, both octrees, the evaluation scratch (phase buffers, Epol
  /// context, cached plan + Born radii), and the base-pose snapshots. This
  /// is the unit the svc artifact cache's byte budget accounts in.
  std::size_t footprint_bytes() const;

  /// Evaluate at the engine's current settings, reusing the session
  /// scratch — repeated calls on an unchanged shape grow no scratch
  /// buffer.
  EvalResult evaluate(ws::Scheduler* sched = nullptr);

  /// Evaluate at different evaluation-time knobs without rebuilding the
  /// trees. The settings stick (they become the engine's current approx
  /// params).
  EvalResult evaluate_at(const ApproxParams& approx,
                         ws::Scheduler* sched = nullptr);

  /// Re-score moved atoms: refit the atoms tree to `positions` (input
  /// order, same count) and the qpoints tree to `surf` (refit when the
  /// point count is unchanged, rebuild otherwise), rebuilding either tree
  /// when its RefitMonitor trips. The new coordinates become the base
  /// pose. Returns true when any rebuild happened. Call evaluate() after.
  bool update(std::span<const geom::Vec3> positions,
              const surface::Surface& surf);

  /// Rigidly move atoms [ligand_begin, size) and their surface points
  /// (owner_atom ≥ ligand_begin) to `pose` *relative to the base
  /// coordinates*, with refit-or-rebuild maintenance. No evaluation.
  /// Returns true when a rebuild happened.
  bool apply_pose(const geom::RigidTransform& pose, std::size_t ligand_begin);

  /// Score a stream of rigid ligand poses (transforms relative to the
  /// base coordinates). Emits one "session.pose" trace span per pose.
  std::vector<PoseScore> score_poses(
      std::span<const geom::RigidTransform> poses, std::size_t ligand_begin,
      PoseMode mode = PoseMode::CrossScreen, ws::Scheduler* sched = nullptr);

  /// Restore the base coordinates after a Full-mode pose stream left the
  /// session at the last pose.
  void reset_to_base();

 private:
  struct ScreenState;  // frozen-monomer caches for CrossScreen

  ScreenState& ensure_screen_state(std::size_t ligand_begin);
  PoseScore score_pose_full(const geom::RigidTransform& pose,
                            std::size_t ligand_begin, double e_bodies,
                            ws::Scheduler* sched);
  PoseScore score_pose_screen(const geom::RigidTransform& pose,
                              ScreenState& st);
  void snapshot_base();

  mol::Molecule mol_;
  surface::Surface surf_;
  GBEngine engine_;
  surface::SurfaceParams surface_params_;
  EvalScratch scratch_;
  octree::RefitMonitor atoms_monitor_;
  octree::RefitMonitor qpoints_monitor_;
  MoveStats stats_;

  // Base-pose snapshots (input order) that pose transforms act on.
  std::vector<geom::Vec3> base_atom_pos_;
  std::vector<geom::Vec3> base_q_pos_;
  std::vector<geom::Vec3> base_q_normal_;
  std::vector<geom::Vec3> pose_pos_;  ///< per-pose position staging buffer

  std::unique_ptr<ScreenState> screen_;
};

}  // namespace octgb::core
