#pragma once
/// \file born_walk.hpp
/// The one Born-phase traversal of octgb_core (DESIGN.md §2.6): the
/// admissibility structure of APPROX-INTEGRALS (Fig. 2), walked
/// *owner-major*. Internal to octgb_core: not part of the installed
/// headers.
///
/// The walk starts from a span of T_Q leaves (all of them, or one
/// segment of a distributed driver; any other start id is rejected) and
/// descends T_A top-down. Every T_A node A receives, in order, the open
/// list of T_Q leaves that reached it and resolves each one:
///
///   far (born_far_enough) → a far decision of owner A;
///   A leaf                → a near decision of owner A;
///   A internal            → Q goes on A's pass-down list;
///
/// then forks over A's children, each handed the whole pass-down list.
/// Every decision of owner A is made by the one task visiting A, in the
/// order the serial Q-major traversal makes it — so each node_s slot and
/// each A-leaf's atom_s range has one writer, which adds its terms in
/// serial order: no atomics, and the results are bitwise at every worker
/// count.
///
/// What happens to a decision is the sink's business. Per visited T_A
/// node the walk makes one `Sink::Owner o = sink.open(a_id)`, hands it
/// `o.far(q_id)` / `o.near(q_id)` in order, and ends with `o.close()`;
/// a false close() aborts the walk (validate's mismatch). The sinks are
/// evaluate (born.cpp), count / emit / compare (plan.cpp) and the
/// near-set collect of the data-distribution model (data_distributed.cpp),
/// whose near() marks its owner's leaf.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "atomic_add.hpp"
#include "octgb/core/born.hpp"
#include "octgb/core/gb_params.hpp"
#include "octgb/core/trees.hpp"
#include "octgb/perf/counters.hpp"
#include "octgb/trace/trace.hpp"
#include "octgb/util/check.hpp"
#include "octgb/ws/scheduler.hpp"

namespace octgb::core::detail {

/// The far-gradient pass (DESIGN.md §2.6): add Σ g_A·a + ½ aᵀH_A a,
/// a = x − c_A, over the T_A nodes A containing each atom x into its
/// atom_s slot (tree order). `far` holds one A-side far expansion per T_A
/// node, summed in decision order by the node's owner. Runs after every
/// near pair of the walk or replay has been added; each atom's slot has
/// one writer, and the pass forks over large subtrees like the push, so
/// the result is bitwise at every worker count.
void add_far_gradients(const AtomsTree& ta,
                       std::span<const FarExpansion> far,
                       std::span<double> atom_s);

/// The far-expansion scratch of one evaluation: `given` zeroed (it must
/// hold one entry per T_A node), or, when empty, `own` sized and zeroed.
std::span<FarExpansion> far_scratch(const AtomsTree& ta,
                                    std::span<FarExpansion> given,
                                    std::vector<FarExpansion>& own);

/// Fork over A's children while |A| × |pass-down list| exceeds this — an
/// estimate of the decisions and leaf pairs below A. Smaller subtrees
/// recurse serially: a steal would cost more than the work it moves.
inline constexpr std::uint64_t kBornForkGrain = 8192;

template <class Sink>
class BornWalk {
 public:
  /// `threshold` is born_threshold(eps_born, strict). `parallel` false
  /// keeps the walk on the calling thread even under a scheduler (the
  /// serial PlanRecorder capture). `task_span` names the trace span of
  /// every walk task (nullptr: none).
  BornWalk(const AtomsTree& ta, const QPointsTree& tq, double threshold,
           Sink& sink, bool parallel, const char* task_span = nullptr)
      : ta_(ta),
        tq_(tq),
        threshold_(threshold),
        sink_(sink),
        parallel_(parallel),
        task_span_(task_span) {}

  /// Walk from `start` (T_Q leaf ids) and add the Born-phase counters
  /// (visits, exact pairs, far terms) to `work`. False when a close()
  /// failed. Throws util::CheckError naming the first start id that is
  /// not a T_Q leaf.
  bool run(std::span<const std::uint32_t> start, perf::WorkCounters& work) {
    work_ = &work;
    if (ta_.tree.empty() || tq_.tree.empty()) return true;
    for (const std::uint32_t q_id : start)
      OCTGB_CHECK_MSG(
          q_id < tq_.tree.nodes().size() && tq_.tree.node(q_id).is_leaf(),
          "Born walk: start id " << q_id << " is not a T_Q leaf");
    task({start.begin(), start.end()}, 0);
    return !failed_.load(std::memory_order_relaxed);
  }

 private:
  using Node = octree::Octree::Node;

  struct Tally {
    std::uint64_t visits = 0, exact = 0, approx = 0;
  };

  /// One walk task: the subtree of `a_id` against `open`.
  void task(std::vector<std::uint32_t> open, std::uint32_t a_id) {
    trace::Span span(task_span_);
    Tally t;
    const std::size_t n = open.size();
    descend(a_id, open, 0, n, t);
    atomic_add(work_->born_visits, t.visits);
    atomic_add(work_->born_exact, t.exact);
    atomic_add(work_->born_approx, t.approx);
  }

  /// Resolve buf[lo, hi) against A, then walk A's children with the
  /// pass-down list, which this call appends to `buf` and removes again.
  void descend(std::uint32_t a_id, std::vector<std::uint32_t>& buf,
               std::size_t lo, std::size_t hi, Tally& t) {
    if (failed_.load(std::memory_order_relaxed)) return;
    const Node& a = ta_.tree.node(a_id);
    const std::size_t mark = buf.size();
    {
      typename Sink::Owner o = sink_.open(a_id);
      // Index, not iterator: resolve() may grow `buf`.
      for (std::size_t i = lo; i < hi; ++i) resolve(a, buf[i], o, buf, t);
      if (!o.close()) {
        failed_.store(true, std::memory_order_relaxed);
        return;
      }
    }
    const std::size_t pass = buf.size() - mark;
    if (pass == 0) return;
    if (parallel_ && std::uint64_t{a.size()} * pass > kBornForkGrain &&
        ws::Scheduler::current() != nullptr) {
      const std::span<const std::uint32_t> down(buf.data() + mark, pass);
      std::vector<std::function<void()>> forks;
      forks.reserve(a.child_count);
      for (std::uint8_t c = 0; c < a.child_count; ++c) {
        const std::uint32_t child = a.first_child + c;
        forks.emplace_back(
            [this, down, child] { task({down.begin(), down.end()}, child); });
      }
      ws::Scheduler::fork_all(forks);
    } else {
      for (std::uint8_t c = 0; c < a.child_count; ++c)
        descend(a.first_child + c, buf, mark, mark + pass, t);
    }
    buf.resize(mark);
  }

  void resolve(const Node& a, std::uint32_t q_id, typename Sink::Owner& o,
               std::vector<std::uint32_t>& buf, Tally& t) const {
    ++t.visits;
    const Node& q = tq_.tree.node(q_id);
    const double d = std::sqrt(geom::dist2(a.centroid, q.centroid));
    if (born_far_enough(d, a.radius, q.radius, threshold_)) {
      ++t.approx;
      o.far(q_id);
    } else if (a.is_leaf()) {
      t.exact += std::uint64_t{a.size()} * q.size();
      o.near(q_id);
    } else {
      buf.push_back(q_id);
    }
  }

  const AtomsTree& ta_;
  const QPointsTree& tq_;
  double threshold_;
  Sink& sink_;
  bool parallel_;
  const char* task_span_;
  perf::WorkCounters* work_ = nullptr;
  std::atomic<bool> failed_{false};
};

}  // namespace octgb::core::detail
