#include "octgb/core/dual_traversal.hpp"

#include <cmath>

#include "atomic_add.hpp"
#include "octgb/core/born.hpp"
#include "octgb/core/gb_params.hpp"
#include "octgb/core/plan.hpp"
#include "octgb/simd/dispatch.hpp"
#include "octgb/util/check.hpp"
#include "octgb/ws/scheduler.hpp"

namespace octgb::core {

namespace {

using geom::Vec3;
using octree::Octree;
using detail::atomic_add;

struct DualCounts {
  std::uint64_t exact = 0, approx = 0, visits = 0;
};

struct DualPass {
  const AtomsTree& ta;
  const QPointsTree& tq;
  double threshold;  ///< admissibility factor k: far iff (d+s) ≤ k(d−s)
  bool approx_math;
  KernelKind kernel;
  const simd::KernelSet* vec;  ///< non-null: explicit-SIMD near field
  bool mixed;                  ///< float streams (vec must be non-null)
  std::span<double> node_s;
  std::span<double> atom_s;
  perf::WorkCounters* shared;
  PlanRecorder* recorder;  ///< non-null: record decisions (oracle), serial

  void flush(const DualCounts& lc) const {
    atomic_add(shared->born_exact, lc.exact);
    atomic_add(shared->born_approx, lc.approx);
    atomic_add(shared->born_visits, lc.visits);
  }

  void exact_pair(const Octree::Node& a, const Octree::Node& q,
                  DualCounts& lc) const {
    if (kernel == KernelKind::Batched && vec != nullptr) {
      const double* __restrict ax = ta.soa_x().data();
      const double* __restrict ay = ta.soa_y().data();
      const double* __restrict az = ta.soa_z().data();
      if (mixed) {
        const QPointBatchF qb = tq.node_batch_f(q);
        for (std::uint32_t ai = a.begin; ai < a.end; ++ai)
          atomic_add(atom_s[ai],
                     vec->born_integral_mixed(ax[ai], ay[ai], az[ai], qb));
      } else {
        const QPointBatch qb = tq.node_batch(q);
        const auto fn =
            approx_math ? vec->born_integral_fast : vec->born_integral;
        for (std::uint32_t ai = a.begin; ai < a.end; ++ai)
          atomic_add(atom_s[ai], fn(ax[ai], ay[ai], az[ai], qb));
      }
    } else if (kernel == KernelKind::Batched) {
      const QPointBatch qb = tq.node_batch(q);
      const double* __restrict ax = ta.soa_x().data();
      const double* __restrict ay = ta.soa_y().data();
      const double* __restrict az = ta.soa_z().data();
      for (std::uint32_t ai = a.begin; ai < a.end; ++ai) {
        const double s =
            approx_math ? batch_born_integral_fast(ax[ai], ay[ai], az[ai], qb)
                        : batch_born_integral(ax[ai], ay[ai], az[ai], qb);
        atomic_add(atom_s[ai], s);
      }
    } else {
      const auto atom_pts = ta.tree.points();
      for (std::uint32_t ai = a.begin; ai < a.end; ++ai) {
        atomic_add(atom_s[ai], scalar_born_pair(atom_pts[ai], tq, q.begin,
                                                q.end, approx_math));
      }
    }
    lc.exact += static_cast<std::uint64_t>(a.size()) * q.size();
  }

  void descend(std::uint32_t a_id, std::uint32_t q_id, DualCounts& lc) const {
    ++lc.visits;
    const Octree::Node& a = ta.tree.node(a_id);
    const Octree::Node& q = tq.tree.node(q_id);
    const double d2 = geom::dist2(a.centroid, q.centroid);
    const double d = std::sqrt(d2);
    if (born_far_enough(d, a.radius, q.radius, threshold)) {
      // Q (possibly internal) acts on A as one pseudo q-point with the
      // node-aggregated weighted normal.
      if (recorder) recorder->far(a_id, q_id);
      atomic_add(node_s[a_id],
                 born_far_term(a.centroid, q.centroid, tq.node_wnormal[q_id],
                               approx_math));
      ++lc.approx;
      return;
    }
    const bool a_leaf = a.is_leaf();
    const bool q_leaf = q.is_leaf();
    if (a_leaf && q_leaf) {
      if (recorder) recorder->near(a_id, q_id);
      exact_pair(a, q, lc);
      return;
    }
    // Refine the node with the larger radius (both when only one is a
    // leaf, that one stays fixed). Recording forbids forking: the capture
    // order must be the serial one.
    const bool split_a = !a_leaf && (q_leaf || a.radius >= q.radius);
    if (split_a) {
      if (a.size() > 8192 && ws::Scheduler::current() != nullptr &&
          recorder == nullptr) {
        std::vector<std::function<void()>> forks;
        forks.reserve(a.child_count);
        for (std::uint8_t c = 0; c < a.child_count; ++c) {
          const std::uint32_t child = a.first_child + c;
          forks.emplace_back([this, child, q_id] {
            DualCounts mine;
            descend(child, q_id, mine);
            flush(mine);
          });
        }
        ws::Scheduler::fork_all(forks);
      } else {
        for (std::uint8_t c = 0; c < a.child_count; ++c)
          descend(a.first_child + c, q_id, lc);
      }
    } else {
      for (std::uint8_t c = 0; c < q.child_count; ++c)
        descend(a_id, q.first_child + c, lc);
    }
  }
};

}  // namespace

void approx_integrals_dual(const AtomsTree& ta, const QPointsTree& tq,
                           double eps_born, bool approx_math,
                           std::span<double> node_s, std::span<double> atom_s,
                           perf::WorkCounters& counters,
                           bool strict_criterion, KernelKind kernel,
                           const simd::VectorParams& vector,
                           PlanRecorder* recorder) {
  OCTGB_CHECK_MSG(eps_born > 0.0, "eps_born must be positive");
  OCTGB_CHECK(node_s.size() == ta.tree.nodes().size());
  OCTGB_CHECK(atom_s.size() == ta.num_atoms());
  if (ta.tree.empty() || tq.tree.empty()) return;
  const double threshold = strict_criterion
                               ? std::pow(1.0 + eps_born, 1.0 / 6.0)
                               : 1.0 + eps_born;
  const simd::VectorParams rvec = simd::resolve(vector);
  const simd::KernelSet* vec =
      kernel == KernelKind::Batched ? simd::kernels(rvec.isa) : nullptr;
  const bool mixed = vec != nullptr && !approx_math &&
                     rvec.precision == simd::Precision::Mixed;
  DualPass pass{ta,    tq,     threshold, approx_math, kernel,
                vec,   mixed,  node_s,    atom_s,      &counters,
                recorder};
  DualCounts lc;
  pass.descend(0, 0, lc);
  pass.flush(lc);
}

}  // namespace octgb::core
