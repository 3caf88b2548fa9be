#pragma once
/// \file engine.hpp
/// GBEngine — the library's main façade. Owns the two octrees for one
/// molecule + surface and exposes (a) a one-call compute() covering the
/// Naive-with-octree / OCT_CILK configurations and (b) the segment-level
/// phase API the distributed drivers (hybrid.hpp, sim/) are built on.

#include <memory>
#include <vector>

#include "octgb/core/born.hpp"
#include "octgb/core/epol.hpp"
#include "octgb/core/gb_params.hpp"
#include "octgb/core/plan.hpp"
#include "octgb/core/trees.hpp"
#include "octgb/core/workdiv.hpp"
#include "octgb/perf/counters.hpp"
#include "octgb/ws/scheduler.hpp"

namespace octgb::core {

/// Engine configuration: approximation parameters, GB constants, octree
/// build knobs. `approx.vector` picks the width the exact near-field
/// kernels run at (octgb/simd/, runtime-dispatched; VectorIsa::Scalar is
/// width 1), the only near-field selector besides approx_math. Like
/// approx_math it changes results only by floating-point reassociation,
/// never the traversal partition, so it participates in the Born-cache
/// stamp but not in the PlanKey. Tracing is process-wide, not a config
/// field: `OCTGB_TRACE=1` or trace::Tracer::set_enabled (OBSERVABILITY.md).
///
/// Mutability contract: the tree-build knobs (`atoms_tree_params`,
/// `qpoints_tree_params`) are consumed at construction and *must not*
/// change afterwards — mutating them on a live engine would silently
/// desynchronize the config from the trees it describes. GBEngine
/// therefore exposes only the evaluation-time knobs (`approx`, `gb`) for
/// post-construction mutation; the full config is read-only.
struct EngineConfig {
  ApproxParams approx;
  GBParams gb;
  octree::BuildParams atoms_tree_params{.max_leaf_size = 32};
  octree::BuildParams qpoints_tree_params{.max_leaf_size = 64};
};

/// Result of a full energy evaluation.
struct EnergyResult {
  double epol = 0.0;               ///< kcal/mol
  std::vector<double> born;        ///< Born radii, input (original) order
  perf::WorkCounters work;         ///< measured operation counts
  double wall_seconds = 0.0;       ///< actual wall time of compute()
};

/// Stage-2 artifact of the evaluation pipeline: all working memory one
/// evaluation needs — phase-A accumulators, the tree-order Born plane,
/// the input-order remap target, and the Epol bin tables. Buffers are
/// *zeroed, not reallocated* between computes: after the first warm
/// compute on a given engine shape, repeated evaluations grow no scratch
/// buffer, and `allocation_events` (which counts exactly those growths)
/// stays put. That is not "no heap allocation": the tree walks allocate
/// their fork lists.
/// One scratch serves any number of engines/evaluations sequentially; it
/// is not thread-safe across concurrent computes.
struct EvalScratch {
  std::vector<double> node_s;      ///< per-T_A-node integrals (phase A)
  std::vector<double> atom_s;      ///< per-atom near-field integrals
  std::vector<double> born_tree;   ///< Born radii, tree order (phase B)
  std::vector<double> born_input;  ///< Born radii, input order (remap)
  /// Per-T_A-node far expansions of the Born phase (approx_integrals,
  /// InteractionPlan::replay); they zero it themselves.
  std::vector<FarExpansion> far;
  EpolContext epol_ctx;            ///< moment-by-bin tables (energy phase)
  /// Cached interaction plan + Born results for the engine/params most
  /// recently evaluated through this scratch, plus the plan statistics.
  /// Plan buffers obey the same capacity-reuse contract as the phase
  /// buffers.
  PlanCache plan_cache;
  /// Count of prepare()/context-rebuild steps that had to grow a buffer's
  /// capacity. Steady-state warm computes leave it unchanged; the session
  /// and plan tests assert on exactly that.
  std::size_t allocation_events = 0;

  /// Size-and-zero every phase buffer for an engine with the given tree
  /// shape (`far` is only sized), reusing capacity; bumps
  /// allocation_events when any vector had to grow.
  void prepare(std::size_t n_nodes, std::size_t n_atoms);

  std::size_t footprint_bytes() const;
};

/// Result of one evaluation through an EvalScratch. `born` is a view of
/// the scratch's input-order plane — valid until the scratch's next
/// prepare()/compute; copy it if you need it longer.
struct EvalResult {
  double epol = 0.0;               ///< kcal/mol
  std::span<const double> born;    ///< Born radii, input order (view)
  perf::WorkCounters work;         ///< measured operation counts
  double wall_seconds = 0.0;       ///< actual wall time of this compute
};

/// Octree-based GB energy engine for one molecule + sampled surface.
class GBEngine {
 public:
  GBEngine(const mol::Molecule& mol, const surface::Surface& surf,
           EngineConfig config = {});

  /// Adopt already-built stage-1 trees (Preprocessed::build). `config`'s
  /// tree-build knobs are kept only for later rebuild_atoms() /
  /// rebuild_qpoints() calls; they are *not* re-applied to the adopted
  /// trees.
  GBEngine(Preprocessed pre, EngineConfig config = {});

  const EngineConfig& config() const { return config_; }
  // Post-construction mutation is restricted to the evaluation-time knobs;
  // the tree-build parameters are fixed once the trees exist (see the
  // EngineConfig mutability contract).
  ApproxParams& approx() { return config_.approx; }
  GBParams& gb() { return config_.gb; }

  /// Refit T_A in place to moved atom coordinates (input order, same
  /// count): topology is preserved, centroids/radii and the SoA planes
  /// are refreshed. Pair with octree::RefitMonitor to decide when drift
  /// warrants a rebuild instead. Advances the geometry epoch.
  void refit_atoms(std::span<const geom::Vec3> positions) {
    ta_.refit(positions);
    ++geometry_epoch_;
  }
  /// Refit T_Q in place to a moved surface (same point count and order).
  /// Advances the geometry epoch.
  void refit_qpoints(const surface::Surface& surf) {
    tq_.refit(surf);
    ++geometry_epoch_;
  }
  /// Rebuild T_A from scratch (topology change) with the construction-time
  /// build parameters. Advances both the topology and geometry epochs.
  void rebuild_atoms(const mol::Molecule& mol) {
    ta_ = AtomsTree::build(mol, config_.atoms_tree_params);
    ++topology_epoch_;
    ++geometry_epoch_;
  }
  /// Rebuild T_Q from scratch with the construction-time build parameters.
  /// Advances both the topology and geometry epochs.
  void rebuild_qpoints(const surface::Surface& surf) {
    tq_ = QPointsTree::build(surf, config_.qpoints_tree_params);
    ++topology_epoch_;
    ++geometry_epoch_;
  }

  /// Process-unique engine identity (plan-cache key component; a scratch
  /// may serve several engines in turn).
  std::uint64_t engine_id() const { return engine_id_; }
  /// Bumped by every rebuild_*: a different epoch means the trees'
  /// topology (node structure, point permutation) may have changed, which
  /// unconditionally invalidates a cached plan.
  std::uint64_t topology_epoch() const { return topology_epoch_; }
  /// Bumped by every refit_* and rebuild_*: a different epoch means node
  /// centroids/radii (and thus results) may have changed. A cached plan
  /// survives it via structural re-validation; cached Born radii do not.
  std::uint64_t geometry_epoch() const { return geometry_epoch_; }

  const AtomsTree& atoms_tree() const { return ta_; }
  const QPointsTree& qpoints_tree() const { return tq_; }
  std::size_t num_atoms() const { return ta_.num_atoms(); }
  std::size_t num_ta_nodes() const { return ta_.tree.nodes().size(); }

  /// T_Q leaf ids (Born-phase work units) and T_A leaf ids (energy-phase
  /// work units) in tree order.
  const std::vector<std::uint32_t>& q_leaves() const {
    return tq_.tree.leaf_ids();
  }
  const std::vector<std::uint32_t>& a_leaves() const {
    return ta_.tree.leaf_ids();
  }

  /// Bytes one process replicating all input data would hold (trees +
  /// payloads) — the unit of the paper's §V-B memory comparison.
  std::size_t footprint_bytes() const {
    return ta_.footprint_bytes() + tq_.footprint_bytes();
  }

  /// Full computation in this process. When `sched` is non-null, the
  /// phases run under it (the OCT_CILK configuration); otherwise serial.
  /// Thin compatibility wrapper over compute(EvalScratch&): allocates a
  /// cold scratch per call and runs the Born walk without a plan;
  /// bitwise identical to the warm path at any worker count.
  EnergyResult compute(ws::Scheduler* sched = nullptr) const;

  /// Stage-3 evaluation against caller-owned working memory: all phase
  /// buffers and the Epol context come from (and are left in) `scratch`,
  /// so back-to-back computes on the same tree shape grow no scratch
  /// buffer (see EvalScratch for what still allocates).
  /// This is the hot path of ScoringSession. The Born phase goes through
  /// the scratch's plan cache: a capture + replay on the first
  /// evaluation, replay or a full Born-result reuse afterwards —
  /// bit-identical to the one-shot compute()'s walk, at any worker count,
  /// in every case (DESIGN.md §2.6).
  EvalResult compute(EvalScratch& scratch, ws::Scheduler* sched = nullptr) const;

  /// Energy only, with externally supplied Born radii (input order) — the
  /// octree Epol kernel runs unchanged on HCT/OBC/Still radii, mirroring
  /// MD packages' support for multiple GB models on one engine.
  double epol_with_radii(std::span<const double> born_input_order,
                         perf::WorkCounters& counters) const;

  // --- phase API for distributed drivers -------------------------------

  /// Born phase A on a segment of q_leaves(); accumulates into
  /// node_s (size num_ta_nodes()) and atom_s (size num_atoms()), bitwise
  /// at any worker count. Concurrent calls must not share the spans.
  /// `far` is the far-expansion scratch (approx_integrals). Throws
  /// util::CheckError unless begin ≤ end ≤ q_leaves().size().
  void phase_integrals(Segment q_leaf_segment, std::span<double> node_s,
                       std::span<double> atom_s,
                       perf::WorkCounters& counters,
                       std::span<FarExpansion> far = {}) const;

  /// Born phase B for atoms in tree positions [segment.begin, segment.end).
  void phase_push(Segment atom_segment, std::span<const double> node_s,
                  std::span<const double> atom_s,
                  std::span<double> born_tree,
                  perf::WorkCounters& counters) const;

  /// Bin table for the energy phase (requires complete born_tree).
  EpolContext build_epol_context(std::span<const double> born_tree) const;

  /// Energy phase on a segment of a_leaves(); returns this segment's
  /// partial Epol (node-based work division). Each mutual near leaf pair
  /// is evaluated by only one of its two leaves (see approx_epol), so a
  /// segment's partial is not its own leaves' share: only the sum over
  /// segments that partition a_leaves() is the full energy. Throws
  /// util::CheckError unless begin ≤ end ≤ a_leaves().size().
  double phase_epol(const EpolContext& ctx,
                    std::span<const double> born_tree, Segment a_leaf_segment,
                    perf::WorkCounters& counters) const;

  /// Energy phase with atom-based work division (ablation).
  double phase_epol_atom_based(const EpolContext& ctx,
                               std::span<const double> born_tree,
                               Segment atom_segment,
                               perf::WorkCounters& counters) const;

  /// Remap a tree-order Born array to input order (allocating convenience
  /// overload).
  std::vector<double> born_to_input_order(
      std::span<const double> born_tree) const;

  /// Non-allocating remap into caller-owned storage (`out.size()` must
  /// equal `born_tree.size()`); the overload the EvalScratch path uses.
  void born_to_input_order(std::span<const double> born_tree,
                           std::span<double> out) const;

 private:
  EvalResult compute_eval(EvalScratch& scratch, ws::Scheduler* sched,
                          bool allow_plan) const;

  static std::uint64_t next_engine_id();

  EngineConfig config_;
  AtomsTree ta_;
  QPointsTree tq_;
  std::uint64_t engine_id_ = next_engine_id();
  std::uint64_t topology_epoch_ = 0;
  std::uint64_t geometry_epoch_ = 0;
};

}  // namespace octgb::core
