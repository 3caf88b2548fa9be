#pragma once
// The library's composite calls, restated as sequences of public calls so
// the traced run can time each layer from outside. Every function here
// mirrors one library entry point step for step; the traced run checks
// that both give the same energies and plan decisions.

#include <memory>
#include <span>
#include <vector>

#include "bench.hpp"
#include "octgb/core/engine.hpp"
#include "octgb/core/hybrid.hpp"
#include "octgb/core/session.hpp"
#include "octgb/octree/dynamic.hpp"
#include "octgb/surface/surface.hpp"

namespace perfbench {

/// One cold evaluation, coordinates → Epol: surface, trees, engine and the
/// one-shot GBEngine::compute(sched) (the OCT_CILK configuration).
struct ColdResult {
  double epol = 0.0;
  std::vector<double> born;  ///< input order
  octgb::surface::Surface surf;
};
ColdResult cold_eval(const octgb::mol::Molecule& mol,
                     const octgb::surface::SurfaceParams& sp,
                     octgb::ws::Scheduler& sched);
/// The same evaluation through the engine's phase API, each step timed.
ColdResult cold_eval_traced(const octgb::mol::Molecule& mol,
                            const octgb::surface::SurfaceParams& sp,
                            octgb::ws::Scheduler& sched, Layers& layers);

/// Mirror of core::ScoringSession (update, apply_pose, evaluate through the
/// plan cache, CrossScreen) built from public calls, each timed into the
/// current layer sink.
class TracedSession {
 public:
  TracedSession(const octgb::mol::Molecule& mol,
                const octgb::surface::Surface& surf,
                const octgb::surface::SurfaceParams& sp, Layers& layers);
  ~TracedSession();
  TracedSession(const TracedSession&) = delete;
  TracedSession& operator=(const TracedSession&) = delete;

  void set_layers(Layers& layers) { layers_ = &layers; }

  /// GBEngine::compute(scratch, sched) on the plan-cache path.
  octgb::core::EvalResult evaluate(octgb::ws::Scheduler* sched);
  /// ScoringSession::update.
  void update(std::span<const octgb::geom::Vec3> positions,
              const octgb::surface::Surface& surf);
  /// ScoringSession::apply_pose.
  void apply_pose(const octgb::geom::RigidTransform& pose,
                  std::size_t ligand_begin);
  /// ScoringSession's frozen-monomer state for CrossScreen (set-up step).
  void prime_screen(std::size_t ligand_begin);
  /// ScoringSession::score_poses(…, CrossScreen) for one pose: the Epol.
  double score_screen(const octgb::geom::RigidTransform& pose);

  octgb::core::GBEngine& engine() { return engine_; }
  const octgb::perf::PlanCounters& plan_stats() const {
    return scratch_.plan_cache.stats;
  }
  const octgb::core::MoveStats& move_stats() const { return stats_; }

 private:
  struct Screen;

  void snapshot_base();
  // The refit-or-rebuild steps shared by update() and apply_pose().
  void maintain_atoms(std::span<const octgb::geom::Vec3> positions);
  void maintain_qpoints(bool allow_refit);

  Layers* layers_;
  octgb::mol::Molecule mol_;
  octgb::surface::Surface surf_;
  octgb::core::GBEngine engine_;
  octgb::surface::SurfaceParams sp_;
  octgb::core::EvalScratch scratch_;
  octgb::octree::RefitMonitor atoms_monitor_;
  octgb::octree::RefitMonitor qpoints_monitor_;
  octgb::core::MoveStats stats_;
  std::vector<octgb::geom::Vec3> base_atom_pos_, base_q_pos_, base_q_normal_;
  std::vector<octgb::geom::Vec3> pose_pos_;
  std::unique_ptr<Screen> screen_;
};

/// run_hybrid restated as a rank body over mpp::Runtime::run, the engine's
/// phase_* calls and Comm collectives, each step timed per rank.
struct HybridTraced {
  double epol = 0.0;
  std::vector<double> born;  ///< input order
};
HybridTraced run_hybrid_traced(const octgb::core::GBEngine& engine,
                               const octgb::core::HybridConfig& config,
                               Layers& layers);

}  // namespace perfbench
