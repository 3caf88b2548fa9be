#include "octgb/core/born.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "atomic_add.hpp"
#include "born_walk.hpp"
#include "near_field.hpp"
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
  FarExpansion* far;       ///< per-T_A-node A-side far expansion
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
          s.tq.node_wmoment[q_id], s.tq.node_wmoment2[q_id], s.nf.fast,
          s.far[a_id]);
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

double born_far_term(const Vec3& ac, const Vec3& qc, const Vec3& wn,
                     const NormalMoment& wm, const NormalMoment2& wm2,
                     bool approx_math, FarExpansion& far) {
  const Vec3 d = qc - ac;
  const double r2 = geom::dist2(ac, qc);
  // Same coincidence guard as the near kernels (r ≤ 1e-6): the criterion
  // never admits d = 0, but direct calls and degenerate single-point
  // geometry can — return 0 instead of an infinity that would poison the
  // node partial. !(r2 > …) also catches NaN centroids.
  if (!(r2 > 1e-12)) return 0.0;
  // One 1/r² (fast_rsqrt² under approx_math); 1/r⁶, 1/r⁸ and 1/r¹⁰ by
  // products.
  double u;
  if (approx_math) {
    const double t = fast_rsqrt(r2);
    u = t * t;
  } else {
    u = 1.0 / r2;
  }
  const double i6 = u * u * u;
  const double i8 = i6 * u;
  const double i10 = i8 * u;
  const double nd = wn.dot(d);
  const double tr = wm.xx + wm.yy + wm.zz;
  const Vec3 sd{wm.xx * d.x + wm.xy * d.y + wm.xz * d.z,
                wm.xy * d.x + wm.yy * d.y + wm.yz * d.z,
                wm.xz * d.x + wm.yz * d.y + wm.zz * d.z};
  const double dsd = d.dot(sd);
  // The second moment's trace vector t_k = O_iik and its cube O(δ,δ,δ).
  const Vec3 t{wm2.xxx + wm2.xyy + wm2.xzz, wm2.xxy + wm2.yyy + wm2.yzz,
               wm2.xxz + wm2.yyz + wm2.zzz};
  const double ddd =
      wm2.xxx * d.x * d.x * d.x + wm2.yyy * d.y * d.y * d.y +
      wm2.zzz * d.z * d.z * d.z +
      3.0 * (wm2.xxy * d.x * d.x * d.y + wm2.xxz * d.x * d.x * d.z +
             wm2.xyy * d.x * d.y * d.y + wm2.yyz * d.y * d.y * d.z +
             wm2.xzz * d.x * d.z * d.z + wm2.yzz * d.y * d.z * d.z) +
      6.0 * wm2.xyz * d.x * d.y * d.z;
  // A side: the monopole's gradient and the S×a cross term, then the
  // monopole's Hessian.
  const double ntr = nd + tr;
  far.g += d * (6.0 * ntr * i8 - 48.0 * dsd * i10) - wn * i6 +
           sd * (12.0 * i8);
  const double a8 = -6.0 * i8;
  const double b10 = 48.0 * nd * i10;
  far.hxx += a8 * (2.0 * wn.x * d.x + nd) + b10 * d.x * d.x;
  far.hyy += a8 * (2.0 * wn.y * d.y + nd) + b10 * d.y * d.y;
  far.hzz += a8 * (2.0 * wn.z * d.z + nd) + b10 * d.z * d.z;
  far.hxy += a8 * (wn.x * d.y + wn.y * d.x) + b10 * d.x * d.y;
  far.hxz += a8 * (wn.x * d.z + wn.z * d.x) + b10 * d.x * d.z;
  far.hyz += a8 * (wn.y * d.z + wn.z * d.y) + b10 * d.y * d.z;
  return ntr * i6 - (6.0 * dsd + 9.0 * t.dot(d)) * i8 + 24.0 * ddd * i10;
}

void approx_integrals(const AtomsTree& ta, const QPointsTree& tq,
                      std::span<const std::uint32_t> q_leaf_ids,
                      double eps_born, bool approx_math,
                      std::span<double> node_s, std::span<double> atom_s,
                      perf::WorkCounters& counters, bool strict_criterion,
                      KernelKind, const simd::VectorParams& vector,
                      PlanRecorder* recorder, std::span<FarExpansion> far) {
  OCTGB_CHECK_MSG(eps_born > 0.0, "eps_born must be positive");
  OCTGB_CHECK(node_s.size() == ta.tree.nodes().size());
  OCTGB_CHECK(atom_s.size() == ta.num_atoms());
  std::vector<FarExpansion> own;
  far = detail::far_scratch(ta, far, own);
  EvalSink sink{ta,
                tq,
                detail::select_near_field(vector, approx_math),
                node_s.data(),
                atom_s.data(),
                far.data(),
                recorder};
  // One "born.leaves" span per walk task: the per-worker Born activity
  // the trace shows under the phase-level "born.traversal" span.
  detail::BornWalk<EvalSink>(ta, tq,
                             born_threshold(eps_born, strict_criterion), sink,
                             recorder == nullptr, "born.leaves")
      .run(q_leaf_ids, counters);
  detail::add_far_gradients(ta, far, atom_s);
}

namespace {

/// The far-gradient pass: every node carries the sums g and H of the
/// gradients and Hessians on its root path and that path's correction k
/// evaluated at its own centroid, so each atom x of a leaf L receives
/// k_L + g_L·a + ½ aᵀH_L a with a = x − c_L. Stepping to a child at
/// e = c_child − c_parent is the exact Taylor shift of that quadratic:
/// k += g·e + ½ eᵀHe, g += He, H unchanged.
struct GradientPass {
  const AtomsTree& ta;
  const FarExpansion* far;
  double* atom_s;

  static double quad(const FarExpansion& h, const Vec3& a) {
    return h.hxx * a.x * a.x + h.hyy * a.y * a.y + h.hzz * a.z * a.z +
           2.0 * (h.hxy * a.x * a.y + h.hxz * a.x * a.z + h.hyz * a.y * a.z);
  }
  static Vec3 apply(const FarExpansion& h, const Vec3& a) {
    return {h.hxx * a.x + h.hxy * a.y + h.hxz * a.z,
            h.hxy * a.x + h.hyy * a.y + h.hyz * a.z,
            h.hxz * a.x + h.hyz * a.y + h.hzz * a.z};
  }

  void descend(std::uint32_t a_id, FarExpansion e, double k) const {
    const Octree::Node& a = ta.tree.node(a_id);
    const FarExpansion& own = far[a_id];
    e.g += own.g;
    e.hxx += own.hxx;
    e.hyy += own.hyy;
    e.hzz += own.hzz;
    e.hxy += own.hxy;
    e.hxz += own.hxz;
    e.hyz += own.hyz;
    if (a.is_leaf()) {
      const double* const px = ta.soa_x().data();
      const double* const py = ta.soa_y().data();
      const double* const pz = ta.soa_z().data();
      const Vec3 c = a.centroid;
      for (std::uint32_t ai = a.begin; ai < a.end; ++ai) {
        const Vec3 r{px[ai] - c.x, py[ai] - c.y, pz[ai] - c.z};
        atom_s[ai] += k + e.g.dot(r) + 0.5 * quad(e, r);
      }
      return;
    }
    const bool fork = a.size() > 4096 && ws::Scheduler::current() != nullptr;
    std::vector<std::function<void()>> forks;
    for (std::uint8_t c = 0; c < a.child_count; ++c) {
      const std::uint32_t child = a.first_child + c;
      const Vec3 step = ta.tree.node(child).centroid - a.centroid;
      const double kc = k + e.g.dot(step) + 0.5 * quad(e, step);
      FarExpansion ec = e;
      ec.g += apply(e, step);
      if (fork)
        forks.emplace_back([this, child, ec, kc] { descend(child, ec, kc); });
      else
        descend(child, ec, kc);
    }
    if (fork) ws::Scheduler::fork_all(forks);
  }
};

}  // namespace

namespace detail {

std::span<FarExpansion> far_scratch(const AtomsTree& ta,
                                    std::span<FarExpansion> given,
                                    std::vector<FarExpansion>& own) {
  const std::size_t n = ta.tree.nodes().size();
  if (given.empty()) {
    own.assign(n, FarExpansion{});
    return own;
  }
  OCTGB_CHECK(given.size() == n);
  std::fill(given.begin(), given.end(), FarExpansion{});
  return given;
}

void add_far_gradients(const AtomsTree& ta,
                       std::span<const FarExpansion> far,
                       std::span<double> atom_s) {
  OCTGB_CHECK(far.size() == ta.tree.nodes().size());
  OCTGB_CHECK(atom_s.size() == ta.num_atoms());
  if (ta.tree.empty()) return;
  OCTGB_SPAN("born.gradient");
  GradientPass{ta, far.data(), atom_s.data()}.descend(0, FarExpansion{}, 0.0);
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
