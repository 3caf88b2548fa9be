#pragma once
/// \file near_field.hpp
/// The one near-field arithmetic selector of the core traversals
/// (DESIGN.md §2.3). Internal to octgb_core: not part of the installed
/// headers.
///
/// Every exact leaf×leaf term — the Born integral of APPROX-INTEGRALS
/// (traversal, dual traversal, plan replay) and the GB pair sum and
/// bin-pair far field of APPROX-EPOL — is computed through a NearField
/// resolved once per call from (KernelKind, VectorParams, approx_math).
/// born_near() and epol_near() hold the only copy of the AoS / vector /
/// fastmath branches; call sites never branch on the arithmetic.

#include <cstdint>
#include <span>

#include "octgb/core/born.hpp"
#include "octgb/core/fastmath.hpp"
#include "octgb/core/gb_params.hpp"
#include "octgb/core/trees.hpp"
#include "octgb/simd/dispatch.hpp"

namespace octgb::core::detail {

/// Kernel table of the Scalar ISA: the autovectorized batch_* kernels of
/// batch_kernels.cpp and the skip-zeros bin-pair far-field loop.
const simd::KernelSet& scalar_kernels();

/// Resolved near-field arithmetic of one evaluation.
struct NearField {
  const simd::KernelSet* set;  ///< never null
  bool aos;   ///< KernelKind::Scalar: AoS loops for the exact leaf pairs
  bool fast;  ///< approx_math: the *_fast entries and fast AoS math
};

/// Resolve once per call. Precedence: KernelKind::Scalar runs the AoS
/// loops and the scalar table's far field whatever the ISA; otherwise the
/// resolved ISA's table runs (the scalar table for the Scalar ISA), with
/// approx_math selecting its *_fast entries.
inline NearField select_near_field(KernelKind kernel,
                                   const simd::VectorParams& vector,
                                   bool approx_math) {
  const bool aos = kernel == KernelKind::Scalar;
  const simd::KernelSet* set = aos ? nullptr : simd::kernels(vector.isa);
  if (set == nullptr) set = &scalar_kernels();
  return {set, aos, approx_math};
}

/// 1/f_GB with optional approximate math (the AoS Epol term).
inline double inv_f_gb(double r2, double ri_rj, bool approx) {
  if (approx) {
    const double e = fast_exp(-r2 / (4.0 * ri_rj));
    return fast_rsqrt(r2 + ri_rj * e);
  }
  return 1.0 / f_gb(r2, ri_rj);
}

/// Exact Born integrals of T_A leaf `a` against T_Q leaf `q`: calls
/// `add(ai, value)` once per atom of `a`, in atom order.
template <class Add>
void born_near(const NearField& nf, const AtomsTree& ta,
               const octree::Octree::Node& a, const QPointsTree& tq,
               const octree::Octree::Node& q, Add&& add) {
  if (nf.aos) {
    const auto atom_pts = ta.tree.points();
    for (std::uint32_t ai = a.begin; ai < a.end; ++ai)
      add(ai, scalar_born_pair(atom_pts[ai], tq, q.begin, q.end, nf.fast));
    return;
  }
  const double* __restrict ax = ta.soa_x().data();
  const double* __restrict ay = ta.soa_y().data();
  const double* __restrict az = ta.soa_z().data();
  const QPointBatch qb = tq.node_batch(q);
  const auto fn = nf.fast ? nf.set->born_integral_fast : nf.set->born_integral;
  for (std::uint32_t ai = a.begin; ai < a.end; ++ai)
    add(ai, fn(ax[ai], ay[ai], az[ai], qb));
}

/// Unscaled exact sum Σ q_u q_v / f_GB of leaf `u` of `tu` against the
/// atoms [v_begin, v_end) of `tv` (one V atom is the range [v, v+1)).
inline double epol_near(const NearField& nf, const AtomsTree& tu,
                        const octree::Octree::Node& u,
                        std::span<const double> born_u, const AtomsTree& tv,
                        std::uint32_t v_begin, std::uint32_t v_end,
                        std::span<const double> born_v) {
  double sum = 0.0;
  if (nf.aos) {
    const auto pts = tu.tree.points();
    const auto pts_v = tv.tree.points();
    for (std::uint32_t vi = v_begin; vi < v_end; ++vi) {
      const geom::Vec3 pv = pts_v[vi];
      const double qv = tv.charge[vi];
      const double rv = born_v[vi];
      for (std::uint32_t ui = u.begin; ui < u.end; ++ui) {
        const double r2 = geom::dist2(pts[ui], pv);
        sum += tu.charge[ui] * qv * inv_f_gb(r2, born_u[ui] * rv, nf.fast);
      }
    }
    return sum;
  }
  const double* __restrict vx = tv.soa_x().data();
  const double* __restrict vy = tv.soa_y().data();
  const double* __restrict vz = tv.soa_z().data();
  const AtomBatch ub = tu.node_batch(u, born_u);
  const auto fn = nf.fast ? nf.set->epol_sum_fast : nf.set->epol_sum;
  for (std::uint32_t vi = v_begin; vi < v_end; ++vi)
    sum += fn(vx[vi], vy[vi], vz[vi], tv.charge[vi], born_v[vi], ub);
  return sum;
}

}  // namespace octgb::core::detail
