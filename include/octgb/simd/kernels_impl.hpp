// \file kernels_impl.hpp
// Width-templated kernel bodies of the explicit vector layer.
//
// Like pack.hpp, this file is textually #included INSIDE an anonymous
// namespace by each per-ISA translation unit (src/simd/kernels_v*.cpp),
// giving every instantiation internal linkage — see the ODR note at the
// top of pack.hpp. The enclosing TU includes <cmath>, <cstdint>,
// <cstddef>, octgb/simd/dispatch.hpp and octgb/core/fastmath.hpp at
// global scope first.
//
// Structure shared by every kernel:
//   · a vector body over the largest multiple of the lane count,
//   · one deterministic pairwise reduction (pack.hpp hsum),
//   · a scalar remainder tail that replicates the reference kernel's
//     per-term code bit for bit (core/batch_kernels.cpp).
// Because the reduction completes before the tail accumulates, a span
// shorter than one vector runs the pure scalar loop — simd_diff_test
// leans on this for its bitwise remainder/splice properties.

#ifndef OCTGB_SIMD_KERNELS_IMPL_INCLUDED
#define OCTGB_SIMD_KERNELS_IMPL_INCLUDED

#include "octgb/simd/pack.hpp"

/// r⁻⁶ Born surface integral of one atom against a q-point batch.
/// Double-lane body + scalar tail; the tail is bitwise the per-term code
/// of core::batch_born_integral(_fast).
template <int N, bool Fast>
double born_integral_w(double ax, double ay, double az,
                       const core::QPointBatch& q) {
  using vd = typename lanes_of<N>::vd;
  const std::size_t n = q.size();
  const double* __restrict qx = q.x.data();
  const double* __restrict qy = q.y.data();
  const double* __restrict qz = q.z.data();
  const double* __restrict wnx = q.wnx.data();
  const double* __restrict wny = q.wny.data();
  const double* __restrict wnz = q.wnz.data();
  const vd vax = bc<vd>(ax), vay = bc<vd>(ay), vaz = bc<vd>(az);
  const vd one = bc<vd>(1.0), zero = bc<vd>(0.0), thr = bc<vd>(1e-12);
  vd acc = zero;
  std::size_t k = 0;
  for (; k + N <= n; k += N) {
    const vd dx = loadu<vd>(qx + k) - vax;
    const vd dy = loadu<vd>(qy + k) - vay;
    const vd dz = loadu<vd>(qz + k) - vaz;
    const vd r2 = dx * dx + dy * dy + dz * dz;
    const vd mask = r2 > thr ? one : zero;
    const vd safe_r2 = r2 + (one - mask);
    vd inv_r6;
    if constexpr (Fast) {
      const vd t = fast_rsqrt_pd<N>(safe_r2);
      const vd t2 = t * t;
      inv_r6 = t2 * t2 * t2;
    } else {
      inv_r6 = one / (safe_r2 * safe_r2 * safe_r2);
    }
    const vd wdot = loadu<vd>(wnx + k) * dx + loadu<vd>(wny + k) * dy +
                    loadu<vd>(wnz + k) * dz;
    acc += mask * wdot * inv_r6;
  }
  double sum = hsum(acc);
  for (; k < n; ++k) {
    const double dx = qx[k] - ax;
    const double dy = qy[k] - ay;
    const double dz = qz[k] - az;
    const double r2 = dx * dx + dy * dy + dz * dz;
    const double mask = r2 > 1e-12 ? 1.0 : 0.0;
    const double safe_r2 = r2 + (1.0 - mask);
    double inv_r6;
    if constexpr (Fast) {
      const double t = core::fast_rsqrt(safe_r2);
      const double t2 = t * t;
      inv_r6 = t2 * t2 * t2;
    } else {
      inv_r6 = 1.0 / (safe_r2 * safe_r2 * safe_r2);
    }
    sum += mask * (wnx[k] * dx + wny[k] * dy + wnz[k] * dz) * inv_r6;
  }
  return sum;
}

/// Exact / fastmath GB pair sum of one pivot atom against an atom batch.
/// The exact body uses pack.hpp exp_pd (≈1 ulp vs libm); the exact tail
/// keeps std::exp so it stays bitwise the batch kernel's per-term code.
/// The fast body replicates core::fast_exp / fast_rsqrt per lane.
template <int N, bool Fast>
double epol_sum_w(double vx, double vy, double vz, double qv, double rv,
                  const core::AtomBatch& atoms) {
  using vd = typename lanes_of<N>::vd;
  const std::size_t n = atoms.size();
  const double* __restrict ux = atoms.x.data();
  const double* __restrict uy = atoms.y.data();
  const double* __restrict uz = atoms.z.data();
  const double* __restrict qu = atoms.charge.data();
  const double* __restrict ru = atoms.born.data();
  const vd vvx = bc<vd>(vx), vvy = bc<vd>(vy), vvz = bc<vd>(vz);
  const vd vrv = bc<vd>(rv), four = bc<vd>(4.0), zero = bc<vd>(0.0);
  vd acc = zero;
  std::size_t k = 0;
  for (; k + N <= n; k += N) {
    const vd dx = loadu<vd>(ux + k) - vvx;
    const vd dy = loadu<vd>(uy + k) - vvy;
    const vd dz = loadu<vd>(uz + k) - vvz;
    const vd r2 = dx * dx + dy * dy + dz * dz;
    const vd d = loadu<vd>(ru + k) * vrv;
    const vd arg = (zero - r2) / (four * d);
    vd e, f2;
    if constexpr (Fast) {
      e = fast_exp_pd<N>(arg);
      f2 = r2 + d * e;
      acc += loadu<vd>(qu + k) * fast_rsqrt_pd<N>(f2);
    } else {
      e = exp_pd<N>(arg);
      f2 = r2 + d * e;
      acc += loadu<vd>(qu + k) / vsqrt_pd(f2);
    }
  }
  double sum = hsum(acc);
  for (; k < n; ++k) {
    const double dx = ux[k] - vx;
    const double dy = uy[k] - vy;
    const double dz = uz[k] - vz;
    const double r2 = dx * dx + dy * dy + dz * dz;
    const double d = ru[k] * rv;
    if constexpr (Fast) {
      const double f2 = r2 + d * core::fast_exp(-r2 / (4.0 * d));
      sum += qu[k] * core::fast_rsqrt(f2);
    } else {
      const double f2 = r2 + d * std::exp(-r2 / (4.0 * d));
      sum += qu[k] / std::sqrt(f2);
    }
  }
  return qv * sum;
}

/// Second-order bin-pair far field (KernelSet::FarBinsFn): for every
/// occupied v-bin, a vector sweep over the u-bin range, then the scalar
/// tail, which calls the scalar table's per-term code
/// (core::detail::far_term, whose comment derives the expression). The
/// sweep runs over U, the far node, whose range is usually the wider
/// one: V is a leaf or one atom. Skipped u-bins (every moment zero)
/// contribute exactly 0 (rep[] > 0 ⇒ f⁻³ finite), so the sweep needs no
/// mask; the pair counter is reconstructed as nnz_u·nnz_v, exactly what
/// the scalar skip-loop reports. One exp, one sqrt and two divisions per
/// bin pair (fastmath: fast_exp, fast_rsqrt and one division).
template <int N, bool Fast>
double epol_far_bins_w(const core::BinMoments& u, const core::BinMoments& v,
                       double dx, double dy, double dz, double d2,
                       std::uint64_t& binpairs) {
  using vd = typename lanes_of<N>::vd;
  using M = core::BinMoments;
  if (u.n <= 0 || v.n <= 0) return 0.0;
  std::uint64_t nnz_u = 0;
  for (int i = 0; i < u.n; ++i) nnz_u += u.occupied(i) ? 1u : 0u;
  const vd vdd2 = bc<vd>(d2), vdx = bc<vd>(dx), vdy = bc<vd>(dy),
           vdz = bc<vd>(dz);
  const vd one = bc<vd>(1.0), two = bc<vd>(2.0), four = bc<vd>(4.0),
           quarter = bc<vd>(0.25), half = bc<vd>(0.5),
           three_q = bc<vd>(0.75), zero = bc<vd>(0.0);
  const double* uq = u.plane(M::Q);
  const double* us = u.plane(M::S);
  const double* ut = u.plane(M::T);
  const double* upx = u.plane(M::Px);
  const double* upy = u.plane(M::Py);
  const double* upz = u.plane(M::Pz);
  const double* uux = u.plane(M::Ux);
  const double* uuy = u.plane(M::Uy);
  const double* uuz = u.plane(M::Uz);
  const double* uxx = u.plane(M::Txx);
  const double* uyy = u.plane(M::Tyy);
  const double* uzz = u.plane(M::Tzz);
  const double* uxy = u.plane(M::Txy);
  const double* uxz = u.plane(M::Txz);
  const double* uyz = u.plane(M::Tyz);
  double total = 0.0;
  std::uint64_t nnz_v = 0;
  for (int j = 0; j < v.n; ++j) {
    if (!v.occupied(j)) continue;
    ++nnz_v;
    const core::detail::FarBinV vj =
        core::detail::far_bin_v(v, j, dx, dy, dz);
    const vd vr = bc<vd>(vj.r), vqj = bc<vd>(vj.q), vsj = bc<vd>(vj.s),
             vtj = bc<vd>(vj.t), vaj = bc<vd>(vj.a), vbj = bc<vd>(vj.b),
             vcj = bc<vd>(vj.c), vtrj = bc<vd>(vj.tr), vpx = bc<vd>(vj.px),
             vpy = bc<vd>(vj.py), vpz = bc<vd>(vj.pz);
    vd acc = zero;
    int i = 0;
    for (; i + N <= u.n; i += N) {
      const vd qi = loadu<vd>(uq + i), si = loadu<vd>(us + i);
      const vd pxi = loadu<vd>(upx + i), pyi = loadu<vd>(upy + i),
               pzi = loadu<vd>(upz + i);
      const vd xx = loadu<vd>(uxx + i), yy = loadu<vd>(uyy + i),
               zz = loadu<vd>(uzz + i);
      const vd ai = vdx * pxi + vdy * pyi + vdz * pzi;
      const vd bi = vdx * loadu<vd>(uux + i) + vdy * loadu<vd>(uuy + i) +
                    vdz * loadu<vd>(uuz + i);
      const vd ci = vdx * (vdx * xx + two * (vdy * loadu<vd>(uxy + i) +
                                             vdz * loadu<vd>(uxz + i))) +
                    vdy * (vdy * yy + two * vdz * loadu<vd>(uyz + i)) +
                    vdz * vdz * zz;
      const vd pp = pxi * vpx + pyi * vpy + pzi * vpz;
      const vd qq = qi * vqj;
      const vd ss = si * vsj;
      const vd rr = loadu<vd>(u.rep + i) * vr;
      const vd rq = rr * qq;
      const vd b1 = two * (ai * vqj - qi * vaj) + vqj * (xx + yy + zz) +
                    qi * vtrj - two * pp;
      const vd b2 = vqj * ci + qi * vcj - two * ai * vaj;
      const vd b3 = ss - rq;
      const vd b4 = bi * vsj - si * vbj + rr * (qi * vaj - ai * vqj);
      const vd b5 = loadu<vd>(ut + i) * vtj - two * rr * ss + rr * rq;
      const vd a4 = one / (four * rr);
      const vd x = vdd2 * a4;
      vd e, h, t;
      if constexpr (Fast) {
        e = fast_exp_pd<N>(zero - x);
        h = fast_rsqrt_pd<N>(vdd2 + rr * e);
        t = h * h * h;
      } else {
        e = exp_pd<N>(zero - x);
        const vd f2 = vdd2 + rr * e;
        t = one / (f2 * vsqrt_pd(f2));
        h = f2 * t;
      }
      const vd fd = one - quarter * e, fr = e * (one + x);
      acc += qq * h +
             t * (three_q * h * h *
                      (two * fd * (fd * b2 + fr * b4) + half * fr * fr * b5) -
                  half * (fd * b1 + fr * b3) +
                  e * a4 * (x * (b4 - x * b5) - quarter * b2));
    }
    double row = hsum(acc);
    for (; i < u.n; ++i)
      row += core::detail::far_term<Fast>(u, i, vj, dx, dy, dz, d2);
    total += row;
  }
  binpairs += nnz_u * nnz_v;
  return total;
}

/// Assemble the width's dispatch table (simd/dispatch.hpp KernelSet).
/// The function pointers target this TU's internal-linkage
/// instantiations, compiled with this TU's ISA flags and nobody else's.
template <int N>
KernelSet make_kernel_set(const char* name) {
  KernelSet ks;
  ks.born_integral = &born_integral_w<N, false>;
  ks.born_integral_fast = &born_integral_w<N, true>;
  ks.epol_sum = &epol_sum_w<N, false>;
  ks.epol_sum_fast = &epol_sum_w<N, true>;
  ks.epol_far_bins = &epol_far_bins_w<N, false>;
  ks.epol_far_bins_fast = &epol_far_bins_w<N, true>;
  ks.lanes = N;
  ks.name = name;
  return ks;
}

#endif  // OCTGB_SIMD_KERNELS_IMPL_INCLUDED
