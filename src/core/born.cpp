#include "octgb/core/born.hpp"

#include <cmath>

#include "atomic_add.hpp"
#include "born_walk.hpp"
#include "near_field.hpp"
#include "octgb/core/dual_traversal.hpp"
#include "octgb/core/fastmath.hpp"
#include "octgb/core/gb_params.hpp"
#include "octgb/core/naive.hpp"
#include "octgb/core/plan.hpp"
#include "octgb/util/check.hpp"
#include "octgb/ws/scheduler.hpp"

namespace octgb::core {

namespace {

using geom::Vec3;
using octree::Octree;
using detail::atomic_add;

/// Local tallies flushed once per push task.
struct LocalCounts {
  std::uint64_t exact = 0, visits = 0;
};

/// Evaluate sink of the Born walk: far terms into node_s[A], exact leaf
/// pairs into A's atom_s range one run of abutting Q leaves at a time
/// (flushed at close()), each decision optionally recorded.
struct EvalSink {
  const AtomsTree& ta;
  const QPointsTree& tq;
  detail::NearField nf;
  double* node_s;
  double* atom_s;
  Vec3* grad;              ///< per-T_A-node A-side far gradient
  PlanRecorder* recorder;  ///< non-null: the walk runs serially

  struct Owner {
    const EvalSink& s;
    std::uint32_t a_id;
    const Octree::Node& a;
    detail::BornNearRuns runs;
    void far(std::uint32_t q_id) {
      if (s.recorder) s.recorder->far(a_id, q_id);
      s.node_s[a_id] += born_far_term(
          a.centroid, s.tq.tree.node(q_id).centroid, s.tq.node_wnormal[q_id],
          s.tq.node_wmoment[q_id], s.nf.fast, s.grad[a_id]);
    }
    void near(std::uint32_t q_id) {
      if (s.recorder) s.recorder->near(a_id, q_id);
      runs.add(s.tq.tree.node(q_id));
    }
    bool close() {
      runs.flush();
      return true;
    }
  };
  Owner open(std::uint32_t a_id) const {
    const Octree::Node& a = ta.tree.node(a_id);
    return {*this, a_id, a, {nf, ta, a, tq, atom_s}};
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
                     const NormalMoment& wm, bool approx_math, Vec3& grad) {
  const Vec3 d = qc - ac;
  const double r2 = geom::dist2(ac, qc);
  // Same coincidence guard as the near kernels (r ≤ 1e-6): the criterion
  // never admits d = 0, but direct calls and degenerate single-point
  // geometry can — return 0 instead of an infinity that would poison the
  // node partial. !(r2 > …) also catches NaN centroids.
  if (!(r2 > 1e-12)) return 0.0;
  // One 1/r² (fast_rsqrt² under approx_math); 1/r⁶ and 1/r⁸ by products.
  double u;
  if (approx_math) {
    const double t = fast_rsqrt(r2);
    u = t * t;
  } else {
    u = 1.0 / r2;
  }
  const double i6 = u * u * u;
  const double i8 = i6 * u;
  const double nd = wn.dot(d);
  const double dsd = wm.xx * d.x * d.x + wm.yy * d.y * d.y +
                     wm.zz * d.z * d.z +
                     2.0 * (wm.xy * d.x * d.y + wm.xz * d.x * d.z +
                            wm.yz * d.y * d.z);
  grad -= wn * i6 - d * (6.0 * nd * i8);
  return (nd + wm.xx + wm.yy + wm.zz) * i6 - 6.0 * dsd * i8;
}

double scalar_born_pair(const Vec3& pa, const QPointsTree& tq,
                        std::uint32_t q_begin, std::uint32_t q_end,
                        bool approx_math) {
  double s = 0.0;
  for (std::uint32_t qi = q_begin; qi < q_end; ++qi) {
    const Vec3 delta = tq.tree.point(qi) - pa;
    const double r2 = delta.norm2();
    if (r2 <= 1e-12) continue;
    s += tq.wnormal(qi).dot(delta) * inv_r6(r2, approx_math);
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
  std::vector<Vec3> grad(node_s.size());
  EvalSink sink{ta,
                tq,
                detail::select_near_field(kernel, vector, approx_math),
                node_s.data(),
                atom_s.data(),
                grad.data(),
                recorder};
  // One "born.leaves" span per walk task: the per-worker Born activity
  // the trace shows under the phase-level "born.traversal" span.
  detail::BornWalk<EvalSink>(ta, tq,
                             born_threshold(eps_born, strict_criterion), sink,
                             recorder == nullptr, "born.leaves")
      .run(q_leaf_ids, counters);
  detail::add_far_gradients(ta, grad, atom_s);
}

void approx_integrals_dual(const AtomsTree& ta, const QPointsTree& tq,
                           double eps_born, bool approx_math,
                           std::span<double> node_s, std::span<double> atom_s,
                           perf::WorkCounters& counters,
                           bool strict_criterion, KernelKind kernel,
                           const simd::VectorParams& vector,
                           PlanRecorder* recorder) {
  // Fig. 1 is the same walk started from the T_Q root (DESIGN.md §2.6).
  const std::uint32_t root = 0;
  approx_integrals(ta, tq, {&root, 1}, eps_born, approx_math, node_s, atom_s,
                   counters, strict_criterion, kernel, vector, recorder);
}

namespace {

/// The far-gradient pass: every node carries the sum G of the gradients
/// on its root path and that path's linear correction K evaluated at its
/// own centroid, so each atom x of a leaf L receives K_L + G_L·(x − c_L).
struct GradientPass {
  const AtomsTree& ta;
  const Vec3* grad;
  double* atom_s;

  void descend(std::uint32_t a_id, Vec3 g, double k) const {
    const Octree::Node& a = ta.tree.node(a_id);
    g += grad[a_id];
    if (a.is_leaf()) {
      const double* const px = ta.soa_x().data();
      const double* const py = ta.soa_y().data();
      const double* const pz = ta.soa_z().data();
      const Vec3 c = a.centroid;
      for (std::uint32_t ai = a.begin; ai < a.end; ++ai)
        atom_s[ai] += k + g.dot({px[ai] - c.x, py[ai] - c.y, pz[ai] - c.z});
      return;
    }
    const bool fork = a.size() > 4096 && ws::Scheduler::current() != nullptr;
    std::vector<std::function<void()>> forks;
    for (std::uint8_t c = 0; c < a.child_count; ++c) {
      const std::uint32_t child = a.first_child + c;
      const double kc = k + g.dot(ta.tree.node(child).centroid - a.centroid);
      if (fork)
        forks.emplace_back([this, child, g, kc] { descend(child, g, kc); });
      else
        descend(child, g, kc);
    }
    if (fork) ws::Scheduler::fork_all(forks);
  }
};

}  // namespace

namespace detail {

void add_far_gradients(const AtomsTree& ta, std::span<const Vec3> grad,
                       std::span<double> atom_s) {
  OCTGB_CHECK(grad.size() == ta.tree.nodes().size());
  OCTGB_CHECK(atom_s.size() == ta.num_atoms());
  if (ta.tree.empty()) return;
  OCTGB_SPAN("born.gradient");
  GradientPass{ta, grad.data(), atom_s.data()}.descend(0, Vec3{}, 0.0);
}

}  // namespace detail

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
