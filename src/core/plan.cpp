#include "octgb/core/plan.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "atomic_add.hpp"
#include "near_field.hpp"
#include "octgb/core/born.hpp"
#include "octgb/util/check.hpp"
#include "octgb/ws/scheduler.hpp"

namespace octgb::core {

namespace {

using octree::Octree;
using detail::atomic_add;

constexpr std::uint32_t kNoGroup = 0xffffffffu;

/// Modeled cost of one far-field pseudo-particle term in point-pair
/// equivalents (a dot product + one 1/r⁶, no per-point loop); used only
/// to balance replay chunks, never to price results.
constexpr std::uint64_t kFarCost = 8;

/// Replay chunk target: enough cost-sorted chunks that greedy packing
/// load-balances any worker count the scheduler realistically runs with,
/// few enough that per-chunk task overhead stays negligible.
constexpr std::uint64_t kTargetChunks = 96;

/// Locality carving targets fewer, larger chunks: a streaming run re-uses
/// the SoA planes it just pulled into cache, so the per-chunk overhead
/// argument flips — coarser chunks amortize better and the hierarchical
/// stealer keeps them balanced. Half the chunk count doubles the target
/// cost per chunk.
constexpr std::uint64_t kTargetChunksLocality = kTargetChunks / 2;

/// A chunk may overshoot its cost target while inside a streaming run (to
/// close on the run boundary), but never past this multiple — one giant
/// run must still split into stealable pieces.
constexpr std::uint64_t kMaxOvershoot = 4;

inline void prefetch_ro(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 3);
#else
  (void)p;
#endif
}

inline void prefetch_rw(void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 1, 3);
#else
  (void)p;
#endif
}

/// Upper bound on the decision walk's T_Q-leaf segments: a few dozen
/// stealable pieces per worker at any realistic worker count, each still
/// many leaves long on production inputs. Fixed so the segment offsets a
/// capture stores are the ones validate() re-walks, whatever the workers.
constexpr std::size_t kWalkSegments = 256;

/// Number of walk segments for (flavor, trees): the T_Q leaves cut into
/// at most kWalkSegments contiguous runs (single flavor), one segment for
/// the dual walk, none when either tree is empty (the traversals return
/// before deciding anything).
std::size_t segment_count(PlanFlavor flavor, const AtomsTree& ta,
                          const QPointsTree& tq) {
  if (ta.tree.empty() || tq.tree.empty()) return 0;
  if (flavor == PlanFlavor::Dual) return 1;
  return std::min(tq.tree.leaf_ids().size(), kWalkSegments);
}

/// The traversals' decision structure without their arithmetic: the
/// admissibility rule and serial recursion order of IntegralsPass::descend
/// (born.cpp) and DualPass::descend (dual_traversal.cpp), each decision
/// handed to a sink instead of evaluated. A sink returning false aborts
/// the walk (the compare sink's mismatch).
template <class Sink>
struct DecisionWalk {
  const Octree& ta;
  const Octree& tq;
  double threshold;
  Sink& sink;

  /// Single flavor: T_A descent against the T_Q leaf `q`.
  bool single(std::uint32_t a_id, const Octree::Node& q, std::uint32_t q_id) {
    sink.visit();
    const Octree::Node& a = ta.node(a_id);
    const double d = std::sqrt(geom::dist2(a.centroid, q.centroid));
    if (born_far_enough(d, a.radius, q.radius, threshold))
      return sink.far(a_id, q_id);
    if (a.is_leaf())
      return sink.near(a_id, q_id, std::uint64_t{a.size()} * q.size());
    for (std::uint8_t c = 0; c < a.child_count; ++c)
      if (!single(a.first_child + c, q, q_id)) return false;
    return true;
  }

  /// Dual flavor: simultaneous descent, refining the larger-radius node.
  bool dual(std::uint32_t a_id, std::uint32_t q_id) {
    sink.visit();
    const Octree::Node& a = ta.node(a_id);
    const Octree::Node& q = tq.node(q_id);
    const double d = std::sqrt(geom::dist2(a.centroid, q.centroid));
    if (born_far_enough(d, a.radius, q.radius, threshold))
      return sink.far(a_id, q_id);
    const bool a_leaf = a.is_leaf();
    const bool q_leaf = q.is_leaf();
    if (a_leaf && q_leaf)
      return sink.near(a_id, q_id, std::uint64_t{a.size()} * q.size());
    if (!a_leaf && (q_leaf || a.radius >= q.radius)) {
      for (std::uint8_t c = 0; c < a.child_count; ++c)
        if (!dual(a.first_child + c, q_id)) return false;
    } else {
      for (std::uint8_t c = 0; c < q.child_count; ++c)
        if (!dual(a_id, q.first_child + c)) return false;
    }
    return true;
  }
};

/// First T_Q leaf index of segment `s` of `n_seg` over `n` leaves.
std::size_t segment_begin(std::size_t s, std::size_t n_seg, std::size_t n) {
  return s * n / n_seg;
}

/// Walk segment `s` of `n_seg` into `sink`.
template <class Sink>
bool walk_segment(const AtomsTree& ta, const QPointsTree& tq,
                  PlanFlavor flavor, double threshold, std::size_t s,
                  std::size_t n_seg, Sink& sink) {
  DecisionWalk<Sink> walk{ta.tree, tq.tree, threshold, sink};
  if (flavor == PlanFlavor::Dual) return walk.dual(0, 0);
  const auto& leaves = tq.tree.leaf_ids();
  const std::size_t hi = segment_begin(s + 1, n_seg, leaves.size());
  for (std::size_t li = segment_begin(s, n_seg, leaves.size()); li < hi; ++li)
    if (!walk.single(0, tq.tree.node(leaves[li]), leaves[li])) return false;
  return true;
}

/// Count sink: list lengths plus the Born-phase work counters
/// (born_approx is the far count).
struct CountSink {
  std::uint64_t n_near = 0, n_far = 0, exact = 0, visits = 0;
  void visit() { ++visits; }
  bool far(std::uint32_t, std::uint32_t) {
    ++n_far;
    return true;
  }
  bool near(std::uint32_t, std::uint32_t, std::uint64_t pairs) {
    ++n_near;
    exact += pairs;
    return true;
  }
};

/// Emit sink: writes one segment's decisions at its list offsets.
struct EmitSink {
  std::uint32_t *na, *nq, *fa, *fq;
  void visit() {}
  bool far(std::uint32_t a_id, std::uint32_t q_id) {
    *fa++ = a_id;
    *fq++ = q_id;
    return true;
  }
  bool near(std::uint32_t a_id, std::uint32_t q_id, std::uint64_t) {
    *na++ = a_id;
    *nq++ = q_id;
    return true;
  }
};

/// Compare sink: checks one segment's decisions against its stored slice
/// [begin, end) of each list; done() additionally demands the slice be
/// consumed exactly (a segment that decides less is drift too).
struct CompareSink {
  const std::uint32_t *na, *nq, *na_end, *fa, *fq, *fa_end;
  void visit() {}
  bool far(std::uint32_t a_id, std::uint32_t q_id) {
    if (fa == fa_end || *fa != a_id || *fq != q_id) return false;
    ++fa;
    ++fq;
    return true;
  }
  bool near(std::uint32_t a_id, std::uint32_t q_id, std::uint64_t) {
    if (na == na_end || *na != a_id || *nq != q_id) return false;
    ++na;
    ++nq;
    return true;
  }
  bool done() const { return na == na_end && fa == fa_end; }
};

}  // namespace

std::size_t InteractionPlan::list_capacity() const {
  return near_a_.capacity() + near_q_.capacity() + far_a_.capacity() +
         far_q_.capacity() + seg_near_.capacity() + seg_far_.capacity();
}

bool InteractionPlan::capture(const AtomsTree& ta, const QPointsTree& tq,
                              const PlanKey& key,
                              std::uint64_t geometry_epoch) {
  key_ = key;
  valid_ = false;
  born_valid_ = false;
  recorded_ = false;
  capture_cap_mark_ = list_capacity();
  const PlanFlavor flavor = key_.flavor;
  const double threshold =
      born_threshold(key_.eps_born, key_.strict_criterion);
  const std::size_t n_seg = segment_count(flavor, ta, tq);
  seg_near_.assign(n_seg + 1, 0);
  seg_far_.assign(n_seg + 1, 0);

  // Count pass: per-segment list lengths and the Born work counters.
  perf::WorkCounters work;
  ws::Scheduler::parallel_for(
      0, static_cast<std::int64_t>(n_seg), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t s = lo; s < hi; ++s) {
          CountSink sink;
          walk_segment(ta, tq, flavor, threshold, s, n_seg, sink);
          seg_near_[s + 1] = sink.n_near;
          seg_far_[s + 1] = sink.n_far;
          atomic_add(work.born_exact, sink.exact);
          atomic_add(work.born_approx, sink.n_far);
          atomic_add(work.born_visits, sink.visits);
        }
      });
  std::partial_sum(seg_near_.begin(), seg_near_.end(), seg_near_.begin());
  std::partial_sum(seg_far_.begin(), seg_far_.end(), seg_far_.begin());

  // Emit pass: every segment writes its decisions at its offsets.
  // Resized, not cleared: the emit pass overwrites every element.
  near_a_.resize(seg_near_.back());
  near_q_.resize(seg_near_.back());
  far_a_.resize(seg_far_.back());
  far_q_.resize(seg_far_.back());
  ws::Scheduler::parallel_for(
      0, static_cast<std::int64_t>(n_seg), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t s = lo; s < hi; ++s) {
          EmitSink sink{near_a_.data() + seg_near_[s],
                        near_q_.data() + seg_near_[s],
                        far_a_.data() + seg_far_[s],
                        far_q_.data() + seg_far_[s]};
          walk_segment(ta, tq, flavor, threshold, s, n_seg, sink);
          OCTGB_CHECK(sink.na == near_a_.data() + seg_near_[s + 1] &&
                      sink.fa == far_a_.data() + seg_far_[s + 1]);
        }
      });
  return finalize(ta, tq, geometry_epoch, work);
}

void InteractionPlan::derive_segments(const AtomsTree& ta,
                                      const QPointsTree& tq) {
  const std::size_t n_seg = segment_count(key_.flavor, ta, tq);
  const auto& leaves = tq.tree.leaf_ids();
  seg_near_.assign(n_seg + 1, 0);
  seg_far_.assign(n_seg + 1, 0);
  if (n_seg == 0) return;  // nothing was decided (empty tree)
  if (n_seg == 1) {
    seg_near_[1] = near_a_.size();
    seg_far_[1] = far_a_.size();
    return;
  }
  // Single flavor: every entry's Q id is a T_Q leaf, and the lists run in
  // leaf order, so segment s starts at the first entry whose leaf lies in
  // segment s or later (cursor_ maps Q-leaf id → segment until finalize
  // reuses it). Searching from the previous offset keeps the offsets a
  // tiling even for lists out of leaf order — validate() then reports
  // them as drift.
  cursor_.assign(tq.tree.nodes().size(), 0);
  for (std::size_t s = 0; s < n_seg; ++s)
    for (std::size_t li = segment_begin(s, n_seg, leaves.size());
         li < segment_begin(s + 1, n_seg, leaves.size()); ++li)
      cursor_[leaves[li]] = static_cast<std::uint32_t>(s);
  const auto start = [this](const std::vector<std::uint32_t>& q_list,
                            std::size_t from, std::size_t s) {
    return static_cast<std::size_t>(
        std::partition_point(q_list.begin() + from, q_list.end(),
                             [&](std::uint32_t q_id) {
                               return cursor_[q_id] < s;
                             }) -
        q_list.begin());
  };
  for (std::size_t s = 1; s < n_seg; ++s) {
    seg_near_[s] = start(near_q_, seg_near_[s - 1], s);
    seg_far_[s] = start(far_q_, seg_far_[s - 1], s);
  }
  seg_near_[n_seg] = near_q_.size();
  seg_far_[n_seg] = far_q_.size();
}

PlanRecorder InteractionPlan::begin_capture(const PlanKey& key) {
  key_ = key;
  valid_ = false;
  born_valid_ = false;
  near_a_.clear();
  near_q_.clear();
  far_a_.clear();
  far_q_.clear();
  recorded_ = true;
  capture_cap_mark_ = list_capacity();
  return PlanRecorder(&near_a_, &near_q_, &far_a_, &far_q_);
}

bool InteractionPlan::finalize(const AtomsTree& ta, const QPointsTree& tq,
                               std::uint64_t geometry_epoch,
                               const perf::WorkCounters& captured_work) {
  const auto caps = [this] {
    return owner_.capacity() + near_begin_.capacity() + far_begin_.capacity() +
           near_q_sorted_.capacity() + far_q_sorted_.capacity() +
           owner_order_.capacity() + chunk_begin_.capacity() +
           run_begin_.capacity() + chunk_atom_begin_.capacity() +
           group_of_node_.capacity() + cursor_.capacity() + cost_.capacity() +
           sorted_cost_.capacity();
  };
  const std::size_t caps_before = caps();
  if (recorded_) derive_segments(ta, tq);
  recorded_ = false;
  const bool grew = list_capacity() > capture_cap_mark_;

  // Group ids in first-appearance (capture) order; owner = target A-node.
  const std::size_t n_nodes = ta.tree.nodes().size();
  group_of_node_.assign(n_nodes, kNoGroup);
  owner_.clear();
  const auto claim = [&](std::uint32_t a_id) {
    if (group_of_node_[a_id] == kNoGroup) {
      group_of_node_[a_id] = static_cast<std::uint32_t>(owner_.size());
      owner_.push_back(a_id);
    }
  };
  for (const std::uint32_t a_id : near_a_) claim(a_id);
  for (const std::uint32_t a_id : far_a_) claim(a_id);
  const std::size_t groups = owner_.size();

  // Stable counting sort of both lists into owner-grouped CSR form: the
  // capture (= serial traversal) order survives within every owner, which
  // is exactly the per-slot accumulation order replay must reproduce.
  near_begin_.assign(groups + 1, 0);
  far_begin_.assign(groups + 1, 0);
  for (const std::uint32_t a_id : near_a_)
    ++near_begin_[group_of_node_[a_id] + 1];
  for (const std::uint32_t a_id : far_a_)
    ++far_begin_[group_of_node_[a_id] + 1];
  for (std::size_t g = 0; g < groups; ++g) {
    near_begin_[g + 1] += near_begin_[g];
    far_begin_[g + 1] += far_begin_[g];
  }
  near_q_sorted_.resize(near_q_.size());
  far_q_sorted_.resize(far_q_.size());
  cursor_.assign(groups, 0);
  for (std::size_t i = 0; i < near_a_.size(); ++i) {
    const std::uint32_t g = group_of_node_[near_a_[i]];
    near_q_sorted_[near_begin_[g] + cursor_[g]++] = near_q_[i];
  }
  cursor_.assign(groups, 0);
  for (std::size_t i = 0; i < far_a_.size(); ++i) {
    const std::uint32_t g = group_of_node_[far_a_[i]];
    far_q_sorted_[far_begin_[g] + cursor_[g]++] = far_q_[i];
  }

  // Per-owner modeled cost, then owners sorted most-expensive-first so the
  // greedy chunking below cannot strand one huge owner at the tail.
  cost_.assign(groups, 0);
  for (std::size_t g = 0; g < groups; ++g) {
    const std::uint64_t a_size = ta.tree.node(owner_[g]).size();
    for (std::uint32_t k = near_begin_[g]; k < near_begin_[g + 1]; ++k)
      cost_[g] += a_size * tq.tree.node(near_q_sorted_[k]).size();
    cost_[g] += kFarCost * (far_begin_[g + 1] - far_begin_[g]);
  }
  owner_order_.resize(groups);
  std::iota(owner_order_.begin(), owner_order_.end(), 0u);
  const std::uint64_t total =
      std::accumulate(cost_.begin(), cost_.end(), std::uint64_t{0});

  // Both carvings are counted; the baseline count is what the cost-sorted
  // carve below (the locality-off path) would produce, so the ≥2× chunk
  // reduction gate can be checked against a single plan.
  const auto carve_cost_sorted = [&](bool emit) -> std::uint64_t {
    const std::uint64_t target =
        std::max<std::uint64_t>(1, total / kTargetChunks);
    std::uint64_t count = groups == 0 ? 0 : 1, acc = 0;
    if (emit) {
      chunk_begin_.clear();
      chunk_begin_.push_back(0);
    }
    for (std::size_t i = 0; i < groups; ++i) {
      acc += cost_[owner_order_[i]];
      if (acc >= target && i + 1 < groups) {
        if (emit) chunk_begin_.push_back(static_cast<std::uint32_t>(i + 1));
        ++count;
        acc = 0;
      }
    }
    if (emit) chunk_begin_.push_back(static_cast<std::uint32_t>(groups));
    return count;
  };

  run_begin_.clear();
  chunk_atom_begin_.clear();
  locality_ = perf::LocalityCounters{};
  prefetches_per_replay_ = 0;
  if (!key_.locality) {
    // PR-9 behaviour, byte for byte: owners most-expensive-first, greedy
    // cost-balanced chunks.
    std::stable_sort(owner_order_.begin(), owner_order_.end(),
                     [&](std::uint32_t x, std::uint32_t y) {
                       return cost_[x] > cost_[y];
                     });
    carve_cost_sorted(/*emit=*/true);
    locality_.chunks = chunks();
    locality_.baseline_chunks = chunks();
  } else {
    // Stream order: owners sorted by their A-node's atom range start. The
    // Morton octree stores leaves' [begin, end) contiguously in tree
    // order, so consecutive owners whose ranges abut form a *run* that
    // replay walks as one forward stream over the SoA planes and atom_s.
    // Per-owner pair lists (and therefore per-slot accumulation order)
    // are untouched — only the order owners are *visited* in changes,
    // and no two owners share a slot, so replay stays bit-identical.
    std::stable_sort(owner_order_.begin(), owner_order_.end(),
                     [&](std::uint32_t x, std::uint32_t y) {
                       const auto& nx = ta.tree.node(owner_[x]);
                       const auto& ny = ta.tree.node(owner_[y]);
                       if (nx.begin != ny.begin) return nx.begin < ny.begin;
                       return owner_[x] < owner_[y];
                     });
    // Baseline count: simulate the cost-sorted carve on a scratch order.
    // (Counting only needs the multiset of costs, and greedy packing is
    // order-dependent, so run it over the actual sorted costs.)
    {
      sorted_cost_.assign(cost_.begin(), cost_.end());
      std::sort(sorted_cost_.begin(), sorted_cost_.end(),
                std::greater<std::uint64_t>());
      const std::uint64_t target =
          std::max<std::uint64_t>(1, total / kTargetChunks);
      std::uint64_t count = groups == 0 ? 0 : 1, acc = 0;
      for (std::size_t i = 0; i < groups; ++i) {
        acc += sorted_cost_[i];
        if (acc >= target && i + 1 < groups) {
          ++count;
          acc = 0;
        }
      }
      locality_.baseline_chunks = count;
    }
    // Run detection: a run extends while the next owner's range starts
    // where the current one ends.
    run_begin_.push_back(0);
    for (std::size_t i = 1; i < groups; ++i) {
      const auto& prev = ta.tree.node(owner_[owner_order_[i - 1]]);
      const auto& cur = ta.tree.node(owner_[owner_order_[i]]);
      if (cur.begin != prev.end)
        run_begin_.push_back(static_cast<std::uint32_t>(i));
    }
    run_begin_.push_back(static_cast<std::uint32_t>(groups));
    locality_.runs = groups == 0 ? 0 : run_begin_.size() - 1;
    locality_.run_owners = groups;
    // Carve along run boundaries: close a chunk at a run boundary once the
    // target is met, or mid-run (still on an owner boundary) only past the
    // overshoot cap.
    const std::uint64_t target =
        std::max<std::uint64_t>(1, total / kTargetChunksLocality);
    chunk_begin_.clear();
    chunk_begin_.push_back(0);
    std::uint64_t acc = 0;
    std::size_t next_run = 1;  // run_begin_ index of the next boundary
    for (std::size_t i = 0; i < groups; ++i) {
      acc += cost_[owner_order_[i]];
      const bool at_run_boundary =
          next_run < run_begin_.size() && run_begin_[next_run] == i + 1;
      if (at_run_boundary) ++next_run;
      if (i + 1 < groups &&
          ((acc >= target && at_run_boundary) ||
           acc >= kMaxOvershoot * target)) {
        chunk_begin_.push_back(static_cast<std::uint32_t>(i + 1));
        acc = 0;
      }
    }
    chunk_begin_.push_back(static_cast<std::uint32_t>(groups));
    locality_.chunks = chunks();
    // One prefetch batch per owner that has a successor in its chunk.
    prefetches_per_replay_ =
        static_cast<std::uint64_t>(groups) -
        std::min<std::uint64_t>(groups, chunks());
    // Monotone atom_s partition aligned to chunks: stream order makes the
    // first owner's range start per chunk non-decreasing, so the clamped
    // starts form a valid boundary array for domain-aware first touch.
    const std::size_t n_atoms = ta.tree.points().size();
    chunk_atom_begin_.assign(chunks() + 1, 0);
    for (std::size_t c = 1; c < chunks(); ++c) {
      const auto& first = ta.tree.node(owner_[owner_order_[chunk_begin_[c]]]);
      chunk_atom_begin_[c] =
          std::max<std::size_t>(chunk_atom_begin_[c - 1], first.begin);
    }
    chunk_atom_begin_.back() = n_atoms;
    for (std::size_t c = chunks(); c-- > 1;)
      chunk_atom_begin_[c] =
          std::min(chunk_atom_begin_[c], chunk_atom_begin_[c + 1]);
  }

  base_work_ = captured_work;
  geometry_epoch_ = geometry_epoch;
  valid_ = true;
  return grew || caps() > caps_before;
}

std::size_t InteractionPlan::footprint_bytes() const {
  return (near_a_.capacity() + near_q_.capacity() + far_a_.capacity() +
          far_q_.capacity() + owner_.capacity() + near_begin_.capacity() +
          far_begin_.capacity() + near_q_sorted_.capacity() +
          far_q_sorted_.capacity() + owner_order_.capacity() +
          chunk_begin_.capacity() + run_begin_.capacity() +
          group_of_node_.capacity() + cursor_.capacity()) *
             sizeof(std::uint32_t) +
         (chunk_atom_begin_.capacity() + seg_near_.capacity() +
          seg_far_.capacity()) *
             sizeof(std::size_t) +
         (cost_.capacity() + sorted_cost_.capacity()) * sizeof(std::uint64_t) +
         born_tree_.capacity() * sizeof(double);
}

bool InteractionPlan::validate(const AtomsTree& ta, const QPointsTree& tq,
                               std::uint64_t geometry_epoch) {
  OCTGB_CHECK_MSG(valid_, "validate() on an invalid plan");
  const PlanFlavor flavor = key_.flavor;
  const double threshold =
      born_threshold(key_.eps_born, key_.strict_criterion);
  const std::size_t n_seg = seg_near_.size() - 1;
  // Same segment count (none for an empty tree) and offsets that tile
  // the lists; then every segment must reproduce its slice exactly, so
  // the concatenated walk equals the stored lists.
  bool ok = segment_count(flavor, ta, tq) == n_seg &&
            seg_near_.back() == near_a_.size() &&
            seg_far_.back() == far_a_.size();
  if (ok) {
    std::atomic<bool> same{true};
    ws::Scheduler::parallel_for(
        0, static_cast<std::int64_t>(n_seg), 1,
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t s = lo; s < hi; ++s) {
            if (!same.load(std::memory_order_relaxed)) return;
            CompareSink sink{near_a_.data() + seg_near_[s],
                             near_q_.data() + seg_near_[s],
                             near_a_.data() + seg_near_[s + 1],
                             far_a_.data() + seg_far_[s],
                             far_q_.data() + seg_far_[s],
                             far_a_.data() + seg_far_[s + 1]};
            if (!walk_segment(ta, tq, flavor, threshold, s, n_seg, sink) ||
                !sink.done())
              same.store(false, std::memory_order_relaxed);
          }
        });
    ok = same.load(std::memory_order_relaxed);
  }
  if (!ok) {
    valid_ = born_valid_ = false;
    return false;
  }
  geometry_epoch_ = geometry_epoch;
  return true;
}

void InteractionPlan::replay(const AtomsTree& ta, const QPointsTree& tq,
                             bool approx_math,
                             const simd::VectorParams& vector,
                             std::span<double> node_s,
                             std::span<double> atom_s,
                             perf::WorkCounters& work) const {
  OCTGB_CHECK_MSG(valid_, "replay() on an invalid plan");
  // Same arithmetic selection as the traversals: identical out-of-line
  // kernel code per near pair keeps replay bit-identical to capture.
  const detail::NearField nf =
      detail::select_near_field(key_.kernel, vector, approx_math);
  const std::int64_t nchunks = static_cast<std::int64_t>(chunks());
  // Stream-plane base pointers, hoisted for the next-run prefetch below
  // (cheap cached spans; the near-loop kernels re-derive their own).
  const double* const px = ta.soa_x().data();
  const double* const py = ta.soa_y().data();
  const double* const pz = ta.soa_z().data();
  double* const ps = atom_s.data();
  const bool want_prefetch = key_.locality;
  // Chunks are cost-balanced already; grain 1 keeps every chunk stealable.
  ws::Scheduler::parallel_for(
      0, nchunks, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t c = lo; c < hi; ++c) {
          for (std::uint32_t oi = chunk_begin_[c]; oi < chunk_begin_[c + 1];
               ++oi) {
            const std::uint32_t g = owner_order_[oi];
            const std::uint32_t a_id = owner_[g];
            const Octree::Node& a = ta.tree.node(a_id);
            // Streaming carve visits owners in atom-range order, so the
            // next owner's planes are the upcoming stream: pull their
            // first lines in while this owner's arithmetic retires.
            if (want_prefetch && oi + 1 < chunk_begin_[c + 1]) {
              const Octree::Node& nx =
                  ta.tree.node(owner_[owner_order_[oi + 1]]);
              prefetch_ro(px + nx.begin);
              prefetch_ro(py + nx.begin);
              prefetch_ro(pz + nx.begin);
              prefetch_rw(ps + nx.begin);
            }
            // Far terms: node_s[a_id] belongs to this task alone; capture
            // order is preserved, so the sum matches the serial traversal
            // bit for bit (the arithmetic is the same out-of-line
            // born_far_term both traversals call).
            if (far_begin_[g] != far_begin_[g + 1]) {
              double acc = 0.0;
              for (std::uint32_t k = far_begin_[g]; k < far_begin_[g + 1];
                   ++k) {
                const std::uint32_t q_id = far_q_sorted_[k];
                acc += born_far_term(a.centroid, tq.tree.node(q_id).centroid,
                                     tq.node_wnormal[q_id], approx_math);
              }
              node_s[a_id] += acc;
            }
            // Near pairs: the owner is an A-leaf, and its atom range
            // [a.begin, a.end) of atom_s is exclusive to this task. The
            // q-outer / atom-inner loop hands every atom its additions in
            // capture order.
            for (std::uint32_t k = near_begin_[g]; k < near_begin_[g + 1];
                 ++k) {
              const Octree::Node& q = tq.tree.node(near_q_sorted_[k]);
              detail::born_near(
                  nf, ta, a, tq, q,
                  [ps](std::uint32_t ai, double v) { ps[ai] += v; });
            }
          }
        }
      });
  work += base_work_;
}

bool InteractionPlan::store_born(std::uint64_t geometry_epoch,
                                 bool approx_math,
                                 const simd::VectorParams& vector,
                                 std::span<const double> born_tree,
                                 const perf::WorkCounters& born_work) {
  OCTGB_CHECK_MSG(valid_, "store_born() on an invalid plan");
  const std::size_t cap = born_tree_.capacity();
  born_tree_.assign(born_tree.begin(), born_tree.end());
  born_geometry_epoch_ = geometry_epoch;
  born_approx_math_ = approx_math;
  born_vector_ = vector;
  born_work_ = born_work;
  born_valid_ = true;
  return born_tree_.capacity() > cap;
}

void InteractionPlan::load_born(std::span<double> born_tree,
                                perf::WorkCounters& work) const {
  OCTGB_CHECK(born_valid_ && born_tree.size() == born_tree_.size());
  std::copy(born_tree_.begin(), born_tree_.end(), born_tree.begin());
  work += born_work_;
}

}  // namespace octgb::core
