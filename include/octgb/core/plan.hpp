#pragma once
/// \file plan.hpp
/// Interaction-plan capture & replay: compile the Born-phase octree
/// traversal into flat SoA execution lists.
///
/// The admissibility structure of APPROX-INTEGRALS depends only on the
/// tree geometry and on (eps_born,
/// strict_criterion) — not on the evaluation-time knobs a ScoringSession
/// re-dials between calls. An InteractionPlan holds every decision the
/// serial recursive traversal makes:
///
///   - the near-field list: (A-leaf, Q-leaf) pairs evaluated exactly, and
///   - the far-field list: (A-node, Q-node) pairs evaluated as one
///     pseudo-particle term into node_s[A].
///
/// Both lists are stored grouped by target A-node ("owner"), each
/// owner's entries in the order the serial traversal accumulates them.
///
/// capture() compiles the lists with the owner-major Born walk
/// (src/core/born_walk.hpp) — the traversal's admissibility rule and
/// per-owner order, no arithmetic — in parallel over T_A subtrees: a
/// count pass sizes every owner's lists, a prefix sum over the T_A nodes
/// turns the sizes into offsets, and an emit pass writes each owner's
/// decisions straight into its slice. Every owner is written by the one
/// task visiting it, so there is nothing to regroup afterwards.
///
/// replay() then evaluates those lists as flat loops over owners: every
/// owner's node_s slot and every A-leaf's atom_s range is written by
/// exactly one task, so replay needs no atomics, is race-free under any
/// schedule, and — because each owner's list is in the serial
/// accumulation order and the arithmetic goes through the same
/// out-of-line kernels (born_far_term and the near-field kernel table)
/// and the walk's own far-gradient pass — reproduces the
/// traversal's results bit for bit.
///
/// Lifecycle (driven by GBEngine::compute on the EvalScratch path, see
/// DESIGN.md §2.6):
///   capture  — parallel count + emit walk, then finalize, which orders
///              the owners by atom range and carves the replay chunks
///              along the Morton leaf runs (DESIGN.md §2.11); the
///              evaluation that captured then replays, so even the first
///              one is exact;
///   replay   — flat execution at unchanged tree geometry;
///   validate — after an in-place refit, the same walk in parallel, each
///              owner's decisions compared element-wise with its stored
///              slice; any divergence invalidates the plan (drift) and
///              triggers a recapture;
///   born cache — when even the geometry is unchanged, the previous
///              evaluation's Born radii are exact, and the whole Born
///              phase (integrals + push) is skipped.

#include <cstdint>
#include <span>
#include <vector>

#include "octgb/core/born.hpp"
#include "octgb/core/gb_params.hpp"
#include "octgb/core/trees.hpp"
#include "octgb/perf/counters.hpp"
#include "octgb/simd/types.hpp"

namespace octgb::core {

/// Which Born traversal a key describes. The plan captures and
/// re-validates the Fig. 2 partition only: every key it holds is Single.
/// Dual names the one-shot Fig. 1 walk (GBEngine::compute_dual), which
/// never goes through a plan.
enum class PlanFlavor : std::uint8_t {
  Single,  ///< approx_integrals: every T_Q leaf (Fig. 2)
  Dual,    ///< approx_integrals_dual: the T_Q root (Fig. 1)
};

/// Everything the Born-phase partition depends on. Two evaluations with
/// equal keys traverse the same (A, Q) pair structure *if* the tree
/// geometry also matches — geometry is tracked separately (via
/// GBEngine::geometry_epoch) because an in-place refit usually preserves
/// the partition and is handled by validate(), not by the key.
/// approx_math is deliberately absent: it changes the arithmetic, never
/// the partition (it is part of the Born-cache stamp instead).
struct PlanKey {
  std::uint64_t engine_id = 0;       ///< GBEngine instance identity
  std::uint64_t topology_epoch = 0;  ///< bumped by tree rebuilds
  double eps_born = 0.0;
  bool strict_criterion = false;
  /// Unread (perfbench); ROADMAP item 1 deletes it.
  KernelKind kernel = KernelKind::Batched;
  PlanFlavor flavor = PlanFlavor::Single;
  /// Unread (perfbench brace-initialises all seven fields): the carve
  /// always follows Morton leaf runs. ROADMAP item 1 deletes it.
  bool locality = true;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

class PlanRecorder;

/// One captured Born-phase partition plus its replay machinery and the
/// piggy-backed Born-result cache. Buffers are reused across recaptures
/// (capacity never shrinks); every method that can grow one reports it so
/// the caller can maintain the EvalScratch::allocation_events contract.
class InteractionPlan {
 public:
  /// Replay chunk target: total modeled cost / kTargetChunks per chunk.
  /// A streaming run re-uses the SoA planes it just pulled into cache, so
  /// chunks are coarse; the hierarchical stealer keeps them balanced.
  static constexpr std::uint64_t kTargetChunks = 48;
  /// A chunk may overshoot its cost target while inside a streaming run
  /// (to close on the run boundary), but never past this multiple — one
  /// giant run must still split into stealable pieces.
  static constexpr std::uint64_t kMaxOvershoot = 4;

  // --- capture ----------------------------------------------------------

  /// Capture `key`'s partition of (ta, tq) by the owner-major walk
  /// (count → prefix sum over T_A nodes → emit) and finalize it at
  /// `geometry_epoch`. The walk also tallies the Born-phase work counters
  /// the evaluating walk would report. Parallel under an active
  /// scheduler, serial otherwise; the lists are identical either way.
  /// Does not evaluate: follow with replay(). Returns true when any
  /// internal buffer had to grow.
  bool capture(const AtomsTree& ta, const QPointsTree& tq, const PlanKey& key,
               std::uint64_t geometry_epoch);

  /// Start a recorder capture for `key` (see PlanRecorder). Invalidates
  /// the previous plan and Born cache; list capacity is kept. Run the
  /// recorder-instrumented approx_integrals over *every* T_Q leaf, then
  /// finalize().
  PlanRecorder begin_capture(const PlanKey& key);

  /// Freeze the captured lists: compute per-owner costs, order the owners
  /// by atom range, find the streaming runs and carve the chunk ranges of
  /// replay's parallel_for (DESIGN.md §2.11). `captured_work` is the walk's
  /// Born-phase counter contribution (reported verbatim by later replays
  /// — operation counts are a property of the partition, not of how it
  /// is executed). After a recorder capture this first closes the
  /// recorded owner groups. Returns true when any internal buffer had to
  /// grow since the capture began.
  bool finalize(const AtomsTree& ta, const QPointsTree& tq,
                std::uint64_t geometry_epoch,
                const perf::WorkCounters& captured_work);

  // --- queries ----------------------------------------------------------

  bool valid() const { return valid_; }
  const PlanKey& key() const { return key_; }
  /// Geometry epoch the lists were last known to match (capture or last
  /// successful validate()).
  std::uint64_t geometry_epoch() const { return geometry_epoch_; }
  std::size_t near_pairs() const { return near_q_.size(); }
  std::size_t far_pairs() const { return far_q_.size(); }
  std::size_t chunks() const {
    return chunk_begin_.empty() ? 0 : chunk_begin_.size() - 1;
  }
  std::size_t footprint_bytes() const;

  // --- owner groups -------------------------------------------------------

  /// Number of owner groups: the T_A nodes with at least one decision.
  std::size_t groups() const { return owner_.size(); }
  /// Owner A-node of group `g`. Groups run in T_A node-id order after
  /// capture(), in walk order after a recorder capture; either way a
  /// node owns at most one group.
  std::uint32_t owner(std::uint32_t g) const { return owner_[g]; }
  /// Group `g`'s near (T_Q leaf) and far (T_Q node) ids, in the order the
  /// walk accumulates them into the owner's slots.
  std::span<const std::uint32_t> near_list(std::uint32_t g) const {
    return std::span(near_q_).subspan(near_begin_[g],
                                      near_begin_[g + 1] - near_begin_[g]);
  }
  std::span<const std::uint32_t> far_list(std::uint32_t g) const {
    return std::span(far_q_).subspan(far_begin_[g],
                                     far_begin_[g + 1] - far_begin_[g]);
  }

  // --- locality introspection (DESIGN.md §2.11) --------------------------

  /// Locality counters of the *last* finalize: runs / run_owners / chunks
  /// are set; prefetch_batches stays zero (a per-replay event the engine
  /// accumulates itself).
  const perf::LocalityCounters& locality_stats() const { return locality_; }
  /// Prefetch issues one replay performs: one per owner with a successor
  /// in its chunk.
  std::uint64_t prefetches_per_replay() const { return prefetches_per_replay_; }
  /// Chunk bounds as indices into owner_order(); size chunks()+1. A chunk
  /// closes at a run boundary once its cost reaches the target, or
  /// mid-run once it reaches kMaxOvershoot × the target.
  std::span<const std::uint32_t> chunk_offsets() const { return chunk_begin_; }
  /// Maximal streaming-run bounds as indices into owner_order(); size
  /// runs+1.
  std::span<const std::uint32_t> run_offsets() const { return run_begin_; }
  /// Owner-group execution order: by the owner's atom range start, then
  /// by node id (stream order).
  std::span<const std::uint32_t> owner_order() const { return owner_order_; }
  /// Modeled cost of owner group `g` (point-pair equivalents).
  std::uint64_t group_cost(std::uint32_t g) const { return cost_[g]; }

  // --- replay path ------------------------------------------------------

  /// Math-free re-walk of the decision structure against (possibly
  /// refitted) trees, parallel over T_A subtrees, every owner's decisions
  /// compared element-wise with its stored lists. True — the partition
  /// is unchanged (every stored owner was visited and matched), replay at
  /// this geometry is bit-identical to re-traversing; the plan's geometry
  /// epoch is advanced to `geometry_epoch`. False — drift flipped at
  /// least one admissibility decision; the plan is invalidated.
  bool validate(const AtomsTree& ta, const QPointsTree& tq,
                std::uint64_t geometry_epoch);

  /// Evaluate the captured lists into node_s / atom_s (both pre-zeroed,
  /// as in the traversal) with a chunked parallel_for over the
  /// run-carved owner groups, prefetching each next owner's planes. Adds
  /// the capture's Born-phase counters to `work`. Bit-identical to the
  /// serial recursive traversal *at the same (approx_math, vector)
  /// arithmetic flavor*: the near loop dispatches
  /// through the identical out-of-line kernels (simd/dispatch.hpp) the
  /// traversal used; the far loop always runs the scalar born_far_term in
  /// capture order, and the far-gradient pass runs after every chunk, as
  /// after the walk. Like approx_math, `vector` changes arithmetic, never
  /// the partition — it is absent from PlanKey and stamped into the Born
  /// cache instead. `far` is the far-expansion scratch, as in
  /// approx_integrals (empty: replay allocates its own).
  void replay(const AtomsTree& ta, const QPointsTree& tq, bool approx_math,
              const simd::VectorParams& vector, std::span<double> node_s,
              std::span<double> atom_s, perf::WorkCounters& work,
              std::span<FarExpansion> far = {}) const;

  // --- Born-result cache (tier 1) ---------------------------------------

  /// Cache the finished Born radii (tree order) and the full phase-A+push
  /// counter contribution after an evaluation at `geometry_epoch` /
  /// `approx_math` / *resolved* `vector`. Returns true when the cache
  /// buffer had to grow.
  bool store_born(std::uint64_t geometry_epoch, bool approx_math,
                  const simd::VectorParams& vector,
                  std::span<const double> born_tree,
                  const perf::WorkCounters& born_work);

  /// Cached radii are exact for the asked-for evaluation: same geometry,
  /// same arithmetic flavor — approx_math AND the resolved vector params
  /// (a width switch changes the radii in the last bits, so
  /// it must repopulate the cache, not serve stale values).
  bool born_valid(std::uint64_t geometry_epoch, bool approx_math,
                  const simd::VectorParams& vector) const {
    return valid_ && born_valid_ && born_geometry_epoch_ == geometry_epoch &&
           born_approx_math_ == approx_math && born_vector_ == vector;
  }

  /// Copy the cached radii into `born_tree` and add the cached phase
  /// counters to `work` (skipping integrals + push entirely).
  void load_born(std::span<double> born_tree,
                 perf::WorkCounters& work) const;

 private:
  friend class PlanRecorder;
  std::size_t capacity() const;

  PlanKey key_{};
  bool valid_ = false;
  std::uint64_t geometry_epoch_ = 0;

  // Owner-grouped CSR of the captured pairs.
  std::vector<std::uint32_t> owner_;       ///< owner A-node id per group
  std::vector<std::uint32_t> near_begin_;  ///< groups+1, into near_q_
  std::vector<std::uint32_t> far_begin_;   ///< groups+1, into far_q_
  std::vector<std::uint32_t> near_q_, far_q_;
  std::vector<std::uint32_t> group_of_node_;  ///< T_A node → group or ~0
  bool recording_ = false;  ///< a PlanRecorder is filling the CSR

  // Replay carve.
  std::vector<std::uint32_t> owner_order_;  ///< group execution order
  std::vector<std::uint32_t> chunk_begin_;  ///< owner_order_ chunk bounds
  std::vector<std::uint32_t> run_begin_;    ///< owner_order_ run bounds
  perf::LocalityCounters locality_{};
  std::uint64_t prefetches_per_replay_ = 0;

  // capture() / finalize() scratch (reused capacity).
  std::vector<std::uint32_t> node_near_, node_far_;  ///< counts per T_A node
  std::vector<std::uint64_t> cost_;
  std::size_t capture_cap_mark_ = 0;  ///< capacity() at capture start

  perf::WorkCounters base_work_;  ///< capture's Born-walk counters

  // Tier-1 Born cache.
  bool born_valid_ = false;
  std::uint64_t born_geometry_epoch_ = 0;
  bool born_approx_math_ = false;
  simd::VectorParams born_vector_{};
  std::vector<double> born_tree_;
  perf::WorkCounters born_work_;  ///< full phase A + push counters
};

/// Append-only sink the instrumented approx_integrals writes its
/// decisions to (an optional argument that forces the walk serial). The serial walk visits owners one at a
/// time, so the recorder builds the owner-grouped lists as it goes: a
/// decision for a new owner opens its group. Perfbench's traced mirror
/// captures this way; the engine never records.
class PlanRecorder {
 public:
  void near(std::uint32_t a_leaf, std::uint32_t q_leaf) {
    open(a_leaf);
    plan_->near_q_.push_back(q_leaf);
  }
  void far(std::uint32_t a_node, std::uint32_t q_node) {
    open(a_node);
    plan_->far_q_.push_back(q_node);
  }

 private:
  friend class InteractionPlan;
  explicit PlanRecorder(InteractionPlan* plan) : plan_(plan) {}
  void open(std::uint32_t a) {
    if (!plan_->owner_.empty() && plan_->owner_.back() == a) return;
    plan_->owner_.push_back(a);
    plan_->near_begin_.push_back(
        static_cast<std::uint32_t>(plan_->near_q_.size()));
    plan_->far_begin_.push_back(
        static_cast<std::uint32_t>(plan_->far_q_.size()));
  }
  InteractionPlan* plan_;
};

/// Single-slot plan cache plus its statistics, owned by EvalScratch so
/// plan reuse follows the scratch (and therefore the session) across
/// engines. The statistics accumulate for the scratch's lifetime and are
/// exported by trace::MetricsRegistry::add_plan (see OBSERVABILITY.md).
struct PlanCache {
  InteractionPlan plan;
  perf::PlanCounters stats;
  /// Accumulated locality counters (exported as plan.locality.*): carve
  /// stats folded in per finalize, prefetch/touch events per replay.
  perf::LocalityCounters locality;

  std::size_t footprint_bytes() const { return plan.footprint_bytes(); }
};

}  // namespace octgb::core
