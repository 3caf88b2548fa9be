#include "octgb/core/plan.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "born_walk.hpp"
#include "near_field.hpp"
#include "octgb/core/born.hpp"
#include "octgb/util/check.hpp"
#include "octgb/ws/scheduler.hpp"

namespace octgb::core {

namespace {

using octree::Octree;

constexpr std::uint32_t kNoGroup = 0xffffffffu;

/// Cost of one second-order far term (born_far_term: 1/r⁶, 1/r⁸ and
/// 1/r¹⁰, the moment contractions, the A-side gradient and Hessian) in
/// exact point-pair equivalents; used only to balance replay chunks,
/// never to price results. Measured on 1BGX_l_b's far and near decisions
/// against the v256 Born batch kernel (4-vCPU x86-64 host, eight timed
/// passes): 19–30 pairs per far term, about 26 ns against 1.3 ns. The
/// first-order term measured 6.3–7.9 on the same harness.
constexpr std::uint64_t kFarCost = 20;

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

/// Count sink: every owner's list lengths, by T_A node id.
struct CountSink {
  std::uint32_t* node_near;
  std::uint32_t* node_far;
  struct Owner {
    CountSink& s;
    std::uint32_t a_id;
    std::uint32_t n_near = 0, n_far = 0;
    void far(std::uint32_t) { ++n_far; }
    void near(std::uint32_t) { ++n_near; }
    bool close() {
      s.node_near[a_id] = n_near;
      s.node_far[a_id] = n_far;
      return true;
    }
  };
  Owner open(std::uint32_t a_id) { return {*this, a_id}; }
};

/// Emit sink: every owner writes its decisions into its group's slices.
struct EmitSink {
  const std::uint32_t* group_of_node;
  const std::uint32_t* near_begin;
  const std::uint32_t* far_begin;
  std::uint32_t* near_q;
  std::uint32_t* far_q;
  struct Owner {
    std::uint32_t *np, *fp;
    void far(std::uint32_t q_id) { *fp++ = q_id; }
    void near(std::uint32_t q_id) { *np++ = q_id; }
    bool close() const { return true; }
  };
  Owner open(std::uint32_t a_id) const {
    // A node without a group makes no decision: its cursors stay unused.
    const std::uint32_t g = group_of_node[a_id];
    if (g == kNoGroup) return {nullptr, nullptr};
    return {near_q + near_begin[g], far_q + far_begin[g]};
  }
};

/// Compare sink: every owner's decisions against its stored slices, which
/// it must consume exactly; `matched` counts the owners that did, so the
/// caller can demand that no stored owner went unvisited.
struct CompareSink {
  const std::vector<std::uint32_t>& group_of_node;
  const InteractionPlan& plan;
  std::atomic<std::size_t> matched{0};
  struct Owner {
    CompareSink& s;
    bool grouped;
    std::span<const std::uint32_t> want_near, want_far;
    std::size_t n = 0, f = 0;
    bool same = true;
    void far(std::uint32_t q_id) {
      same = same && f < want_far.size() && want_far[f] == q_id;
      ++f;
    }
    void near(std::uint32_t q_id) {
      same = same && n < want_near.size() && want_near[n] == q_id;
      ++n;
    }
    bool close() {
      if (!same || n != want_near.size() || f != want_far.size())
        return false;
      if (grouped) s.matched.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  };
  Owner open(std::uint32_t a_id) {
    const std::uint32_t g =
        a_id < group_of_node.size() ? group_of_node[a_id] : kNoGroup;
    if (g == kNoGroup) return {*this, false, {}, {}};
    return {*this, true, plan.near_list(g), plan.far_list(g)};
  }
};

}  // namespace

std::size_t InteractionPlan::capacity() const {
  return owner_.capacity() + near_begin_.capacity() + far_begin_.capacity() +
         near_q_.capacity() + far_q_.capacity() + group_of_node_.capacity() +
         owner_order_.capacity() + chunk_begin_.capacity() +
         run_begin_.capacity() +
         node_near_.capacity() + node_far_.capacity() + cost_.capacity();
}

bool InteractionPlan::capture(const AtomsTree& ta, const QPointsTree& tq,
                              const PlanKey& key,
                              std::uint64_t geometry_epoch) {
  key_ = key;
  valid_ = false;
  born_valid_ = false;
  recording_ = false;
  capture_cap_mark_ = capacity();
  const double threshold =
      born_threshold(key_.eps_born, key_.strict_criterion);
  const auto& start = tq.tree.leaf_ids();

  // Count pass: list lengths per T_A node and the Born work counters.
  // Nodes the walk never reaches keep their zero counts.
  const std::size_t n_nodes = ta.tree.nodes().size();
  node_near_.assign(n_nodes, 0);
  node_far_.assign(n_nodes, 0);
  perf::WorkCounters work;
  {
    CountSink sink{node_near_.data(), node_far_.data()};
    detail::BornWalk<CountSink>(ta, tq, threshold, sink, true)
        .run(start, work);
  }

  // Prefix sum over T_A nodes: a group per node with decisions.
  owner_.clear();
  near_begin_.assign(1, 0);
  far_begin_.assign(1, 0);
  group_of_node_.assign(n_nodes, kNoGroup);
  for (std::uint32_t a = 0; a < n_nodes; ++a) {
    if (node_near_[a] == 0 && node_far_[a] == 0) continue;
    group_of_node_[a] = static_cast<std::uint32_t>(owner_.size());
    owner_.push_back(a);
    near_begin_.push_back(near_begin_.back() + node_near_[a]);
    far_begin_.push_back(far_begin_.back() + node_far_[a]);
  }

  // Emit pass: every owner writes its decisions at its offsets. Resized,
  // not cleared: the emit pass overwrites every element.
  near_q_.resize(near_begin_.back());
  far_q_.resize(far_begin_.back());
  {
    EmitSink sink{group_of_node_.data(), near_begin_.data(),
                  far_begin_.data(), near_q_.data(), far_q_.data()};
    perf::WorkCounters again;
    detail::BornWalk<EmitSink>(ta, tq, threshold, sink, true)
        .run(start, again);
  }
  return finalize(ta, tq, geometry_epoch, work);
}

PlanRecorder InteractionPlan::begin_capture(const PlanKey& key) {
  key_ = key;
  valid_ = false;
  born_valid_ = false;
  capture_cap_mark_ = capacity();
  owner_.clear();
  near_begin_.clear();
  far_begin_.clear();
  near_q_.clear();
  far_q_.clear();
  recording_ = true;
  return PlanRecorder(this);
}

bool InteractionPlan::finalize(const AtomsTree& ta, const QPointsTree& tq,
                               std::uint64_t geometry_epoch,
                               const perf::WorkCounters& captured_work) {
  const std::size_t groups = owner_.size();
  if (recording_) {
    // Close the recorded groups and index them by node; a node owning
    // two groups means the decisions did not arrive owner-major.
    near_begin_.push_back(static_cast<std::uint32_t>(near_q_.size()));
    far_begin_.push_back(static_cast<std::uint32_t>(far_q_.size()));
    group_of_node_.assign(ta.tree.nodes().size(), kNoGroup);
    for (std::uint32_t g = 0; g < groups; ++g) {
      OCTGB_CHECK_MSG(group_of_node_[owner_[g]] == kNoGroup,
                      "recorded decisions are not owner-major");
      group_of_node_[owner_[g]] = g;
    }
    recording_ = false;
  }

  // Per-owner modeled cost, the chunk-size currency.
  cost_.assign(groups, 0);
  for (std::size_t g = 0; g < groups; ++g) {
    const std::uint64_t a_size = ta.tree.node(owner_[g]).size();
    for (std::uint32_t k = near_begin_[g]; k < near_begin_[g + 1]; ++k)
      cost_[g] += a_size * tq.tree.node(near_q_[k]).size();
    cost_[g] += kFarCost * (far_begin_[g + 1] - far_begin_[g]);
  }
  const std::uint64_t total =
      std::accumulate(cost_.begin(), cost_.end(), std::uint64_t{0});

  // Stream order: owners sorted by their A-node's atom range start. The
  // Morton octree stores leaves' [begin, end) contiguously in tree order,
  // so consecutive owners whose ranges abut form a *run* that replay
  // walks as one forward stream over the SoA planes and atom_s. Per-owner
  // pair lists (and therefore per-slot accumulation order) are untouched
  // — only the order owners are *visited* in changes, and no two owners
  // share a slot, so replay stays bit-identical to the walk.
  owner_order_.resize(groups);
  std::iota(owner_order_.begin(), owner_order_.end(), 0u);
  std::stable_sort(owner_order_.begin(), owner_order_.end(),
                   [&](std::uint32_t x, std::uint32_t y) {
                     const auto& nx = ta.tree.node(owner_[x]);
                     const auto& ny = ta.tree.node(owner_[y]);
                     if (nx.begin != ny.begin) return nx.begin < ny.begin;
                     return owner_[x] < owner_[y];
                   });
  // Run detection: a run extends while the next owner's range starts
  // where the current one ends.
  run_begin_.clear();
  run_begin_.push_back(0);
  for (std::size_t i = 1; i < groups; ++i) {
    const auto& prev = ta.tree.node(owner_[owner_order_[i - 1]]);
    const auto& cur = ta.tree.node(owner_[owner_order_[i]]);
    if (cur.begin != prev.end)
      run_begin_.push_back(static_cast<std::uint32_t>(i));
  }
  run_begin_.push_back(static_cast<std::uint32_t>(groups));
  locality_ = perf::LocalityCounters{};
  locality_.runs = groups == 0 ? 0 : run_begin_.size() - 1;
  locality_.run_owners = groups;
  // Carve along run boundaries: close a chunk at a run boundary once the
  // target is met, or mid-run (still on an owner boundary) only past the
  // overshoot cap.
  const std::uint64_t target =
      std::max<std::uint64_t>(1, total / kTargetChunks);
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
  prefetches_per_replay_ = static_cast<std::uint64_t>(groups) -
                           std::min<std::uint64_t>(groups, chunks());

  base_work_ = captured_work;
  geometry_epoch_ = geometry_epoch;
  valid_ = true;
  return capacity() > capture_cap_mark_;
}

std::size_t InteractionPlan::footprint_bytes() const {
  return (owner_.capacity() + near_begin_.capacity() + far_begin_.capacity() +
          near_q_.capacity() + far_q_.capacity() +
          group_of_node_.capacity() + owner_order_.capacity() +
          chunk_begin_.capacity() + run_begin_.capacity() +
          node_near_.capacity() + node_far_.capacity()) *
             sizeof(std::uint32_t) +
         cost_.capacity() * sizeof(std::uint64_t) +
         born_tree_.capacity() * sizeof(double);
}

bool InteractionPlan::validate(const AtomsTree& ta, const QPointsTree& tq,
                               std::uint64_t geometry_epoch) {
  OCTGB_CHECK_MSG(valid_, "validate() on an invalid plan");
  CompareSink sink{group_of_node_, *this};
  perf::WorkCounters work;
  const bool ok =
      detail::BornWalk<CompareSink>(
          ta, tq, born_threshold(key_.eps_born, key_.strict_criterion), sink,
          true)
          .run(tq.tree.leaf_ids(), work) &&
      sink.matched.load(std::memory_order_relaxed) == owner_.size();
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
                             perf::WorkCounters& work,
                             std::span<FarExpansion> far) const {
  OCTGB_CHECK_MSG(valid_, "replay() on an invalid plan");
  // Same arithmetic selection as the Born walk: identical out-of-line
  // kernel code per near pair keeps replay bit-identical to it.
  const detail::NearField nf = detail::select_near_field(vector, approx_math);
  const std::int64_t nchunks = static_cast<std::int64_t>(chunks());
  // Stream-plane base pointers, hoisted for the next-run prefetch below
  // (cheap cached spans; the near-loop kernels re-derive their own).
  const double* const px = ta.soa_x().data();
  const double* const py = ta.soa_y().data();
  const double* const pz = ta.soa_z().data();
  double* const ps = atom_s.data();
  std::vector<FarExpansion> own;
  far = detail::far_scratch(ta, far, own);
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
            if (oi + 1 < chunk_begin_[c + 1]) {
              const Octree::Node& nx =
                  ta.tree.node(owner_[owner_order_[oi + 1]]);
              prefetch_ro(px + nx.begin);
              prefetch_ro(py + nx.begin);
              prefetch_ro(pz + nx.begin);
              prefetch_rw(ps + nx.begin);
            }
            // Far terms: node_s[a_id] and far[a_id] belong to this task
            // alone; the list is in the walk's order, so both sums match
            // the walk bit for bit (the arithmetic is the same out-of-line
            // born_far_term the walk calls).
            if (far_begin_[g] != far_begin_[g + 1]) {
              double acc = 0.0;
              for (std::uint32_t k = far_begin_[g]; k < far_begin_[g + 1];
                   ++k) {
                const std::uint32_t q_id = far_q_[k];
                acc += born_far_term(a.centroid, tq.tree.node(q_id).centroid,
                                     tq.node_wnormal[q_id],
                                     tq.node_wmoment[q_id],
                                     tq.node_wmoment2[q_id], approx_math,
                                     far[a_id]);
              }
              node_s[a_id] += acc;
            }
            // Near pairs: the owner is an A-leaf, and its atom range
            // [a.begin, a.end) of atom_s is exclusive to this task. The
            // walk's run helper over the list in the walk's order hands
            // every atom the walk's run sums in the walk's order.
            detail::BornNearRuns runs(nf, ta, a, tq, ps);
            for (std::uint32_t k = near_begin_[g]; k < near_begin_[g + 1];
                 ++k)
              runs.add(tq.tree.node(near_q_[k]));
            runs.flush();
          }
        }
      });
  // The walk's gradient pass, once every near pair is in.
  detail::add_far_gradients(ta, far, atom_s);
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
