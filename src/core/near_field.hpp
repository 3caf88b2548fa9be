#pragma once
/// \file near_field.hpp
/// The one near-field arithmetic selector of the core traversals
/// (DESIGN.md §2.3). Internal to octgb_core: not part of the installed
/// headers.
///
/// Every exact leaf×leaf term — the Born integral of APPROX-INTEGRALS
/// (walk and plan replay) and the GB pair sum and bin-pair far field of
/// APPROX-EPOL — is computed through a NearField resolved once per call
/// from (VectorParams, approx_math): the resolved ISA's kernel table,
/// with approx_math picking its *_fast entries.
/// born_near() and epol_near() hold the only copy of the fastmath
/// branches; call sites never branch on the arithmetic. NearRun
/// coalesces abutting near leaves into one sweep per run.

#include <cstdint>
#include <span>

#include "octgb/core/trees.hpp"
#include "octgb/simd/dispatch.hpp"

namespace octgb::core::detail {

/// Resolved near-field arithmetic of one evaluation.
struct NearField {
  const simd::KernelSet* set;  ///< never null
  bool fast;  ///< approx_math: the *_fast entries
};

/// Resolve once per call: the resolved ISA's table, with approx_math
/// selecting its *_fast entries.
inline NearField select_near_field(const simd::VectorParams& vector,
                                   bool approx_math) {
  return {simd::kernels(vector.isa), approx_math};
}

/// Gradient in the position x_v of the second-order far field (the
/// FarBinsFn term) of node moments `u`, centroid c_U, acting on one atom
/// of unit charge and Born radius `rv` at x_v = c_U + `delta`: the atom
/// is one bin of its own (Q = 1, S = rv, T = rv², P = U = Θ = 0,
/// rep = rv). Exact math; counts one bin pair per occupied u-bin. The
/// force pass (forces.cpp) scales it by τ·q_v.
geom::Vec3 far_atom_gradient(const BinMoments& u, const geom::Vec3& delta,
                             double rv, std::uint64_t& binpairs);

/// Exact Born integrals of the T_A atoms [a_begin, a_end) against the
/// T_Q points [q_begin, q_end): one sum per atom, in atom order, added
/// into its atom_s slot.
inline void born_near(const NearField& nf, const AtomsTree& ta,
                      std::uint32_t a_begin, std::uint32_t a_end,
                      const QPointsTree& tq, std::uint32_t q_begin,
                      std::uint32_t q_end, double* atom_s) {
  const double* __restrict ax = ta.soa_x().data();
  const double* __restrict ay = ta.soa_y().data();
  const double* __restrict az = ta.soa_z().data();
  const QPointBatch qb = tq.batch(q_begin, q_end);
  const auto fn = nf.fast ? nf.set->born_integral_fast : nf.set->born_integral;
  for (std::uint32_t ai = a_begin; ai < a_end; ++ai)
    atom_s[ai] += fn(ax[ai], ay[ai], az[ai], qb);
}

/// Unscaled exact sum Σ q_u q_v / f_GB of the atoms [u_begin, u_end) of
/// `tu` against the atoms [v_begin, v_end) of `tv` (one V atom is the
/// range [v, v+1)).
inline double epol_near(const NearField& nf, const AtomsTree& tu,
                        std::uint32_t u_begin, std::uint32_t u_end,
                        std::span<const double> born_u, const AtomsTree& tv,
                        std::uint32_t v_begin, std::uint32_t v_end,
                        std::span<const double> born_v) {
  double sum = 0.0;
  const double* __restrict vx = tv.soa_x().data();
  const double* __restrict vy = tv.soa_y().data();
  const double* __restrict vz = tv.soa_z().data();
  const AtomBatch ub = tu.batch(u_begin, u_end, born_u);
  const auto fn = nf.fast ? nf.set->epol_sum_fast : nf.set->epol_sum;
  for (std::uint32_t vi = v_begin; vi < v_end; ++vi)
    sum += fn(vx[vi], vy[vi], vz[vi], tv.charge[vi], born_v[vi], ub);
  return sum;
}

/// The run rule of the exact near field (DESIGN.md §2.3): consecutive
/// near leaves of one owner usually abut in tree order, and one kernel
/// sweep over their union pays the call, the horizontal sum and the
/// scalar remainder once per atom instead of once per leaf. A NearRun
/// holds the pending run [begin, end) and its weight. add() extends it
/// when [b, e) starts where it ends with the same weight; otherwise (a
/// gap, a new weight) it hands the pending run to `sweep(begin, end,
/// weight)` first. flush() hands over what is pending. Every exact sum's
/// association is thus a function of the decision sequence alone: paths
/// that issue the same near decisions in the same order through a
/// NearRun sum bitwise alike.
struct NearRun {
  std::uint32_t begin = 0, end = 0;  ///< pending run; empty: none
  double weight = 0.0;

  template <class Sweep>
  void add(std::uint32_t b, std::uint32_t e, double w, Sweep&& sweep) {
    if (b != end || w != weight) {
      flush(sweep);
      begin = b;
      weight = w;
    }
    end = e;
  }

  template <class Sweep>
  void flush(Sweep&& sweep) {
    if (begin != end) sweep(begin, end, weight);
    begin = end;
  }
};

/// The exact Born near field of one owner: T_A leaf `a` against its near
/// T_Q leaves in decision order, one born_near sweep per run. The walk's
/// evaluate sink, plan replay and plan_test's serial oracle all go
/// through it, so their atom_s sums are bitwise equal.
class BornNearRuns {
 public:
  BornNearRuns(const NearField& nf, const AtomsTree& ta,
               const octree::Octree::Node& a, const QPointsTree& tq,
               double* atom_s)
      : nf_(nf), ta_(ta), tq_(tq), a_begin_(a.begin), a_end_(a.end),
        atom_s_(atom_s) {}

  /// One near decision: T_Q leaf `q`.
  void add(const octree::Octree::Node& q) {
    run_.add(q.begin, q.end, 1.0, *this);
  }
  /// The owner's decisions are over.
  void flush() { run_.flush(*this); }

  /// The sweep of one run.
  void operator()(std::uint32_t q_begin, std::uint32_t q_end, double) const {
    born_near(nf_, ta_, a_begin_, a_end_, tq_, q_begin, q_end, atom_s_);
  }

 private:
  const NearField& nf_;
  const AtomsTree& ta_;
  const QPointsTree& tq_;
  std::uint32_t a_begin_, a_end_;
  double* atom_s_;
  NearRun run_;
};

}  // namespace octgb::core::detail
