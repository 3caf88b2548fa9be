#include "octgb/core/born.hpp"

#include <cmath>

#include "atomic_add.hpp"
#include "near_field.hpp"
#include "octgb/core/fastmath.hpp"
#include "octgb/core/gb_params.hpp"
#include "octgb/core/naive.hpp"
#include "octgb/core/plan.hpp"
#include "octgb/trace/trace.hpp"
#include "octgb/util/check.hpp"
#include "octgb/ws/scheduler.hpp"

namespace octgb::core {

namespace {

using geom::Vec3;
using octree::Octree;
using detail::atomic_add;

/// Local tallies flushed once per leaf task.
struct LocalCounts {
  std::uint64_t exact = 0, approx = 0, visits = 0;
};

/// Recursive descent of T_A against one T_Q leaf (Fig. 2 lines 1–3).
struct IntegralsPass {
  const AtomsTree& ta;
  const QPointsTree& tq;
  const Octree::Node& q;     ///< the T_Q leaf
  std::uint32_t q_id;        ///< the T_Q leaf's node id
  Vec3 q_wnormal;            ///< Σ w·n over the leaf
  double threshold;          ///< admissibility factor (born_threshold)
  detail::NearField nf;
  std::span<double> node_s;
  std::span<double> atom_s;
  PlanRecorder* recorder;    ///< non-null: record decisions (oracle), serial

  void descend(std::uint32_t a_id, LocalCounts& lc) const {
    ++lc.visits;
    const Octree::Node& a = ta.tree.node(a_id);
    const double d2 = geom::dist2(a.centroid, q.centroid);
    const double d = std::sqrt(d2);
    if (born_far_enough(d, a.radius, q.radius, threshold)) {
      // Whole leaf Q acts on node A as one pseudo q-point at its centroid.
      if (recorder) recorder->far(a_id, q_id);
      atomic_add(node_s[a_id],
                 born_far_term(a.centroid, q.centroid, q_wnormal, nf.fast));
      ++lc.approx;
      return;
    }
    if (a.is_leaf()) {
      if (recorder) recorder->near(a_id, q_id);
      detail::born_near(nf, ta, a, tq, q, [this](std::uint32_t ai, double v) {
        atomic_add(atom_s[ai], v);
      });
      lc.exact += static_cast<std::uint64_t>(a.size()) * q.size();
      return;
    }
    // Recurse on the children. Fork only while subtrees are big enough to
    // be worth a steal; below that, serial recursion wins. Recording
    // forbids forking: the capture order must be the serial one.
    if (a.size() > 4096 && ws::Scheduler::current() != nullptr &&
        recorder == nullptr) {
      std::vector<std::function<void()>> forks;
      forks.reserve(a.child_count);
      // Each forked child keeps its own tallies, flushed on completion,
      // because LocalCounts is not thread safe.
      for (std::uint8_t c = 0; c < a.child_count; ++c) {
        const std::uint32_t child = a.first_child + c;
        forks.emplace_back([this, child] {
          LocalCounts mine;
          descend(child, mine);
          flush(mine);
        });
      }
      ws::Scheduler::fork_all(forks);
    } else {
      for (std::uint8_t c = 0; c < a.child_count; ++c)
        descend(a.first_child + c, lc);
    }
  }

  perf::WorkCounters* shared = nullptr;
  void flush(const LocalCounts& lc) const {
    atomic_add(shared->born_exact, lc.exact);
    atomic_add(shared->born_approx, lc.approx);
    atomic_add(shared->born_visits, lc.visits);
  }
};

}  // namespace

double inv_r6(double r2, bool approx_math) {
  if (approx_math) {
    const double t = fast_rsqrt(r2);
    const double t2 = t * t;
    return t2 * t2 * t2;
  }
  return 1.0 / (r2 * r2 * r2);
}

double born_far_term(const Vec3& ac, const Vec3& qc, const Vec3& wn,
                     bool approx_math) {
  const Vec3 delta = qc - ac;
  const double r2 = geom::dist2(ac, qc);
  // Same coincidence guard as the near kernels (r ≤ 1e-6): the criterion
  // never admits d = 0, but direct calls and degenerate single-point
  // geometry can — return 0 instead of an infinity that would poison the
  // node partial. !(r2 > …) also catches NaN centroids.
  if (!(r2 > 1e-12)) return 0.0;
  return wn.dot(delta) * inv_r6(r2, approx_math);
}

double scalar_born_pair(const Vec3& pa, const QPointsTree& tq,
                        std::uint32_t q_begin, std::uint32_t q_end,
                        bool approx_math) {
  const auto q_pts = tq.tree.points();
  double s = 0.0;
  for (std::uint32_t qi = q_begin; qi < q_end; ++qi) {
    const Vec3 delta = q_pts[qi] - pa;
    const double r2 = delta.norm2();
    if (r2 <= 1e-12) continue;
    s += tq.wnormal[qi].dot(delta) * inv_r6(r2, approx_math);
  }
  return s;
}

void approx_integrals(const AtomsTree& ta, const QPointsTree& tq,
                      std::span<const std::uint32_t> q_leaf_ids,
                      double eps_born, bool approx_math,
                      std::span<double> node_s, std::span<double> atom_s,
                      perf::WorkCounters& counters, bool strict_criterion,
                      KernelKind kernel, const simd::VectorParams& vector,
                      PlanRecorder* recorder) {
  OCTGB_CHECK_MSG(eps_born > 0.0, "eps_born must be positive");
  OCTGB_CHECK(node_s.size() == ta.tree.nodes().size());
  OCTGB_CHECK(atom_s.size() == ta.num_atoms());
  if (ta.tree.empty() || tq.tree.empty()) return;

  const double threshold = born_threshold(eps_born, strict_criterion);
  const detail::NearField nf =
      detail::select_near_field(kernel, vector, approx_math);
  const auto leaf_range = [&](std::int64_t lo, std::int64_t hi) {
    // One span per leaf-range task: the per-worker Born activity the
    // trace shows under the phase-level "born.traversal" span.
    OCTGB_SPAN("born.leaves");
    for (std::int64_t li = lo; li < hi; ++li) {
      const Octree::Node& q = tq.tree.node(q_leaf_ids[li]);
      IntegralsPass pass{ta,        tq,     q,      q_leaf_ids[li],
                         tq.node_wnormal[q_leaf_ids[li]],
                         threshold, nf,     node_s, atom_s,
                         recorder};
      pass.shared = &counters;
      LocalCounts lc;
      pass.descend(0, lc);
      pass.flush(lc);
    }
  };
  if (recorder != nullptr) {
    // Capture runs serially even under an active scheduler: the recorded
    // decision order *is* the deterministic serial traversal order.
    leaf_range(0, static_cast<std::int64_t>(q_leaf_ids.size()));
    return;
  }
  // Parallel loop over this rank's T_Q leaves; grain of 1 leaf — the inner
  // traversal provides plenty of work per task.
  ws::Scheduler::parallel_for(
      0, static_cast<std::int64_t>(q_leaf_ids.size()), 1, leaf_range);
}

namespace {

struct PushPass {
  const AtomsTree& ta;
  std::span<const double> node_s;
  std::span<const double> atom_s;
  std::uint32_t begin, end;
  bool approx_math;
  std::span<double> born_tree;
  perf::WorkCounters* shared;

  void descend(std::uint32_t a_id, double prefix, LocalCounts& lc) const {
    const Octree::Node& a = ta.tree.node(a_id);
    if (a.end <= begin || a.begin >= end) return;  // outside the segment
    ++lc.visits;
    prefix += node_s[a_id];
    if (a.is_leaf()) {
      const std::uint32_t lo = std::max(a.begin, begin);
      const std::uint32_t hi = std::min(a.end, end);
      for (std::uint32_t ai = lo; ai < hi; ++ai) {
        born_tree[ai] = finalize_born_radius(atom_s[ai] + prefix,
                                             ta.vdw_radius[ai], approx_math);
      }
      lc.exact += hi - lo;
      return;
    }
    if (a.size() > 4096 && ws::Scheduler::current() != nullptr) {
      std::vector<std::function<void()>> forks;
      forks.reserve(a.child_count);
      for (std::uint8_t c = 0; c < a.child_count; ++c) {
        const std::uint32_t child = a.first_child + c;
        forks.emplace_back([this, child, prefix] {
          LocalCounts mine;
          descend(child, prefix, mine);
          flush(mine);
        });
      }
      ws::Scheduler::fork_all(forks);
    } else {
      for (std::uint8_t c = 0; c < a.child_count; ++c)
        descend(a.first_child + c, prefix, lc);
    }
  }

  void flush(const LocalCounts& lc) const {
    atomic_add(shared->push_atoms, lc.exact);
    atomic_add(shared->push_visits, lc.visits);
  }
};

}  // namespace

void push_integrals_to_atoms(const AtomsTree& ta,
                             std::span<const double> node_s,
                             std::span<const double> atom_s,
                             std::uint32_t atom_begin, std::uint32_t atom_end,
                             bool approx_math, std::span<double> born_tree,
                             perf::WorkCounters& counters) {
  OCTGB_CHECK(node_s.size() == ta.tree.nodes().size());
  OCTGB_CHECK(atom_s.size() == ta.num_atoms());
  OCTGB_CHECK(born_tree.size() == ta.num_atoms());
  if (ta.tree.empty() || atom_begin >= atom_end) return;
  PushPass pass{ta,       node_s,      atom_s,   atom_begin,
                atom_end, approx_math, born_tree, &counters};
  LocalCounts lc;
  pass.descend(0, 0.0, lc);
  pass.flush(lc);
}

}  // namespace octgb::core
