#pragma once
/// \file plan.hpp
/// Interaction-plan capture & replay: compile the Born-phase octree
/// traversal into flat SoA execution lists.
///
/// The admissibility structure of APPROX-INTEGRALS (and of the dual-tree
/// variant) depends only on the tree geometry and on (eps_born,
/// strict_criterion) — not on the evaluation-time knobs a ScoringSession
/// re-dials between calls. An InteractionPlan holds every decision the
/// serial recursive traversal makes:
///
///   - the near-field list: (A-leaf, Q-leaf) pairs evaluated exactly, and
///   - the far-field list: (A-node, Q-node) pairs evaluated as one
///     pseudo-particle term into node_s[A].
///
/// capture() compiles the lists with a *math-free decision walk*: the
/// traversal's admissibility rule and recursion order, no arithmetic. The
/// single-tree walk runs in parallel over fixed segments of the T_Q leaf
/// sequence (the paper's node-based division, Fig. 2): a count pass sizes
/// every segment, a prefix sum turns the sizes into offsets, and an emit
/// pass writes each segment's decisions straight into the lists at its
/// offset. Concatenated in Q-leaf order the segments are the serial
/// traversal order, element for element. The dual-tree walk is one
/// segment (serial).
///
/// replay() then evaluates those lists as flat loops grouped by target
/// A-node ("owner"): every owner's node_s slot and every A-leaf's atom_s
/// range is written by exactly one task, so replay needs no atomics, is
/// race-free under any schedule, and — because the owner grouping is a
/// *stable* sort of the capture order and the arithmetic goes through the
/// same out-of-line kernels (born_far_term / scalar_born_pair /
/// batch_born_integral) — reproduces the serial traversal's accumulation
/// order per slot, hence its results, bit for bit.
///
/// Lifecycle (driven by GBEngine::compute on the EvalScratch path, see
/// DESIGN.md §2.6):
///   capture  — parallel decision walk + finalize; the evaluation that
///              captured then replays, so even the first one is exact;
///   replay   — flat execution at unchanged tree geometry;
///   validate — after an in-place refit, the same walk in parallel over
///              the same segments, compared element-wise with the stored
///              lists at the stored segment offsets; any divergence
///              invalidates the plan (drift) and triggers a recapture;
///   born cache — when even the geometry is unchanged, the previous
///              evaluation's Born radii are exact, and the whole Born
///              phase (integrals + push) is skipped.

#include <cstdint>
#include <span>
#include <vector>

#include "octgb/core/gb_params.hpp"
#include "octgb/core/trees.hpp"
#include "octgb/perf/counters.hpp"
#include "octgb/simd/types.hpp"

namespace octgb::core {

/// Which traversal produced (and re-validates) the plan's partition.
enum class PlanFlavor : std::uint8_t {
  Single,  ///< approx_integrals: T_A descent per T_Q leaf (Fig. 2)
  Dual,    ///< approx_integrals_dual: simultaneous dual-tree descent
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
  KernelKind kernel = KernelKind::Batched;
  PlanFlavor flavor = PlanFlavor::Single;
  /// Locality-aware chunk carving (ApproxParams::locality). In the key
  /// because flipping it changes owner ordering and chunk bounds — the
  /// *partition* of work — even though per-slot accumulation order (and
  /// hence every bit of the result) is unchanged.
  bool locality = true;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

/// Append-only sink the instrumented traversals write their decisions to:
/// the serial reference/oracle for capture(). Handed to approx_integrals /
/// approx_integrals_dual as an optional argument; recording forces the
/// traversal serial, so append order is the serial traversal order — the
/// order capture() must reproduce and replay must preserve per slot. The
/// engine never records; tests (and the benchmark's traced mirror) do.
class PlanRecorder {
 public:
  void near(std::uint32_t a_leaf, std::uint32_t q_leaf) {
    near_a_->push_back(a_leaf);
    near_q_->push_back(q_leaf);
  }
  void far(std::uint32_t a_node, std::uint32_t q_node) {
    far_a_->push_back(a_node);
    far_q_->push_back(q_node);
  }

 private:
  friend class InteractionPlan;
  PlanRecorder(std::vector<std::uint32_t>* na, std::vector<std::uint32_t>* nq,
               std::vector<std::uint32_t>* fa, std::vector<std::uint32_t>* fq)
      : near_a_(na), near_q_(nq), far_a_(fa), far_q_(fq) {}
  std::vector<std::uint32_t>* near_a_;
  std::vector<std::uint32_t>* near_q_;
  std::vector<std::uint32_t>* far_a_;
  std::vector<std::uint32_t>* far_q_;
};

/// One captured Born-phase partition plus its replay machinery and the
/// piggy-backed Born-result cache. Buffers are reused across recaptures
/// (capacity never shrinks); every method that can grow one reports it so
/// the caller can maintain the EvalScratch::allocation_events contract.
class InteractionPlan {
 public:
  // --- capture ----------------------------------------------------------

  /// Capture `key`'s partition of (ta, tq) by the parallel decision walk
  /// (count → prefix sum → emit over fixed T_Q-leaf segments; the dual
  /// flavor walks one segment) and finalize it at `geometry_epoch`. The
  /// walk also tallies the Born-phase work counters the arithmetic
  /// traversal would report. Parallel under an active scheduler, serial
  /// otherwise; the lists are identical either way. Does not evaluate:
  /// follow with replay(). Returns true when any internal buffer had to
  /// grow.
  bool capture(const AtomsTree& ta, const QPointsTree& tq, const PlanKey& key,
               std::uint64_t geometry_epoch);

  /// Start a recorder capture for `key` (serial oracle, see PlanRecorder).
  /// Invalidates the previous plan and Born cache; list capacity is kept.
  /// Run the recorder-instrumented traversal over *every* T_Q leaf, then
  /// finalize().
  PlanRecorder begin_capture(const PlanKey& key);

  /// Freeze the captured lists: group them by owner A-node (stable — the
  /// capture order is preserved within each owner), compute per-owner
  /// costs, sort owners by cost, and carve cost-balanced chunk ranges for
  /// replay's parallel_for. `captured_work` is the traversal's Born-phase
  /// counter contribution (reported verbatim by later replays — operation
  /// counts are a property of the partition, not of how it is executed).
  /// After a recorder capture this also derives the per-segment offsets
  /// validate() compares against, from the lists' Q-leaf ids. Returns
  /// true when any internal buffer had to grow.
  bool finalize(const AtomsTree& ta, const QPointsTree& tq,
                std::uint64_t geometry_epoch,
                const perf::WorkCounters& captured_work);

  // --- queries ----------------------------------------------------------

  bool valid() const { return valid_; }
  const PlanKey& key() const { return key_; }
  /// Geometry epoch the lists were last known to match (capture or last
  /// successful validate()).
  std::uint64_t geometry_epoch() const { return geometry_epoch_; }
  std::size_t near_pairs() const { return near_a_.size(); }
  std::size_t far_pairs() const { return far_a_.size(); }
  std::size_t chunks() const {
    return chunk_begin_.empty() ? 0 : chunk_begin_.size() - 1;
  }
  std::size_t footprint_bytes() const;
  /// Walk-segment offsets into the near / far lists (size S+1; segment s
  /// owns [offsets[s], offsets[s+1])). Single flavor: S = min(n, 256)
  /// over the n T_Q leaves, segment s walking leaf_ids()[s·n/S,
  /// (s+1)·n/S); dual flavor: S = 1; S = 0 for an empty tree. Fixed by
  /// the trees, never by the worker count.
  std::span<const std::size_t> segment_near_offsets() const {
    return seg_near_;
  }
  std::span<const std::size_t> segment_far_offsets() const { return seg_far_; }

  // --- locality introspection (DESIGN.md §2.11) --------------------------

  /// Locality counters of the *last* finalize: runs / run_owners / chunks /
  /// baseline_chunks are set; prefetch_batches and numa_touch_passes stay
  /// zero (they are per-replay events the engine accumulates itself).
  const perf::LocalityCounters& locality_stats() const { return locality_; }
  /// Prefetch issues one replay performs (0 when the plan was carved with
  /// locality off).
  std::uint64_t prefetches_per_replay() const { return prefetches_per_replay_; }
  /// Chunk bounds as indices into owner_order(); size chunks()+1.
  std::span<const std::uint32_t> chunk_offsets() const { return chunk_begin_; }
  /// Maximal streaming-run bounds as indices into owner_order(); size
  /// runs+1 under locality carving, empty otherwise.
  std::span<const std::uint32_t> run_offsets() const { return run_begin_; }
  /// Owner-group execution order (stream order under locality carving,
  /// cost-descending otherwise).
  std::span<const std::uint32_t> owner_order() const { return owner_order_; }
  /// Modeled cost of owner group `g` (point-pair equivalents).
  std::uint64_t group_cost(std::uint32_t g) const { return cost_[g]; }
  /// Monotone atom_s partition aligned to chunk bounds (size chunks()+1,
  /// locality carving only): chunk c's near-field writes land mostly in
  /// [begin[c], begin[c+1]). Feed to perf::touch_zero_by_domain together
  /// with a chunk→socket map to first-touch the accumulators NUMA-locally.
  std::span<const std::size_t> chunk_atom_begin() const {
    return chunk_atom_begin_;
  }

  // --- replay path ------------------------------------------------------

  /// Math-free re-walk of the traversal's decision structure against
  /// (possibly refitted) trees, parallel over the capture's segments,
  /// each compared element-wise with the stored lists from its stored
  /// offset to the next. True — the partition is unchanged, replay at
  /// this geometry is bit-identical to re-traversing; the plan's geometry
  /// epoch is advanced to `geometry_epoch`. False — drift flipped at
  /// least one admissibility decision (or moved a segment boundary); the
  /// plan is invalidated.
  bool validate(const AtomsTree& ta, const QPointsTree& tq,
                std::uint64_t geometry_epoch);

  /// Evaluate the captured lists into node_s / atom_s (both pre-zeroed,
  /// as in the traversal) with a chunked parallel_for over the
  /// cost-sorted owner groups. Adds the capture's Born-phase counters to
  /// `work`. Bit-identical to the serial recursive traversal *at the same
  /// (approx_math, vector) arithmetic flavor*: the near loop dispatches
  /// through the identical out-of-line kernels (simd/dispatch.hpp) the
  /// traversal used; the far loop always runs the scalar born_far_term in
  /// capture order. Like approx_math, `vector` changes arithmetic, never
  /// the partition — it is absent from PlanKey and stamped into the Born
  /// cache instead.
  void replay(const AtomsTree& ta, const QPointsTree& tq, bool approx_math,
              const simd::VectorParams& vector, std::span<double> node_s,
              std::span<double> atom_s, perf::WorkCounters& work) const;

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
  /// (a width or precision switch changes the radii in the last bits, so
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
  /// Recorder capture: the lists are in Q-leaf order, so each walk
  /// segment's offsets are where its first leaf's entries begin.
  void derive_segments(const AtomsTree& ta, const QPointsTree& tq);
  std::size_t list_capacity() const;

  PlanKey key_{};
  bool valid_ = false;
  std::uint64_t geometry_epoch_ = 0;

  // Capture-order pair lists — also the validate() reference.
  std::vector<std::uint32_t> near_a_, near_q_, far_a_, far_q_;
  // Walk-segment offsets into the lists (segment_near/far_offsets()).
  std::vector<std::size_t> seg_near_, seg_far_;
  bool recorded_ = false;  ///< lists came from a PlanRecorder

  // Owner-grouped CSR over the same pairs (stable within owner).
  std::vector<std::uint32_t> owner_;       ///< owner A-node id per group
  std::vector<std::uint32_t> near_begin_;  ///< groups+1, into near_q_sorted_
  std::vector<std::uint32_t> far_begin_;   ///< groups+1, into far_q_sorted_
  std::vector<std::uint32_t> near_q_sorted_, far_q_sorted_;
  std::vector<std::uint32_t> owner_order_;  ///< group execution order
  std::vector<std::uint32_t> chunk_begin_;  ///< owner_order_ chunk bounds
  std::vector<std::uint32_t> run_begin_;    ///< owner_order_ run bounds
  std::vector<std::size_t> chunk_atom_begin_;  ///< atom_s split per chunk
  perf::LocalityCounters locality_{};
  std::uint64_t prefetches_per_replay_ = 0;

  // finalize() scratch (reused capacity).
  std::vector<std::uint32_t> group_of_node_, cursor_;
  std::vector<std::uint64_t> cost_, sorted_cost_;
  std::size_t capture_cap_mark_ = 0;  ///< list_capacity() at capture start

  perf::WorkCounters base_work_;  ///< capture's Born-traversal counters

  // Tier-1 Born cache.
  bool born_valid_ = false;
  std::uint64_t born_geometry_epoch_ = 0;
  bool born_approx_math_ = false;
  simd::VectorParams born_vector_{};
  std::vector<double> born_tree_;
  perf::WorkCounters born_work_;  ///< full phase A + push counters
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
