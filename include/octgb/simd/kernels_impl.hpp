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

/// Bin-pair far field over one (u-node, v-node) charge-by-bin table pair:
/// for every nonzero u-bin, a vector sweep over the v-bin range. Zero
/// v-bins contribute exactly 0 (rep[] > 0 ⇒ f_GB finite ⇒ 0·finite), so
/// no masking is needed for the sum; the pair counter is reconstructed as
/// nnz_u·nnz_v, exactly what the scalar skip-loop reports.
template <int N, bool Fast>
double epol_far_bins_w(const double* ub, int ulo, int uhi,
                       const double* rep_u, const double* vb, int vlo,
                       int vhi, const double* rep_v, double d2,
                       std::uint64_t& binpairs) {
  using vd = typename lanes_of<N>::vd;
  if (ulo > uhi || vlo > vhi) return 0.0;
  std::uint64_t nnz_v = 0;
  for (int j = vlo; j <= vhi; ++j) nnz_v += vb[j] != 0.0 ? 1u : 0u;
  const vd vdd2 = bc<vd>(d2), four = bc<vd>(4.0), zero = bc<vd>(0.0);
  double total = 0.0;
  std::uint64_t nnz_u = 0;
  for (int i = ulo; i <= uhi; ++i) {
    if (ub[i] == 0.0) continue;
    ++nnz_u;
    const double r = rep_u[i];
    const vd vr = bc<vd>(r);
    vd acc = zero;
    int j = vlo;
    for (; j + N <= vhi + 1; j += N) {
      const vd w = loadu<vd>(vb + j);
      const vd rr = vr * loadu<vd>(rep_v + j);
      const vd arg = (zero - vdd2) / (four * rr);
      if constexpr (Fast) {
        const vd f2 = vdd2 + rr * fast_exp_pd<N>(arg);
        acc += w * fast_rsqrt_pd<N>(f2);
      } else {
        const vd f2 = vdd2 + rr * exp_pd<N>(arg);
        acc += w / vsqrt_pd(f2);
      }
    }
    double row = hsum(acc);
    for (; j <= vhi; ++j) {
      const double rr = r * rep_v[j];
      if constexpr (Fast) {
        const double f2 = d2 + rr * core::fast_exp(-d2 / (4.0 * rr));
        row += vb[j] * core::fast_rsqrt(f2);
      } else {
        const double f2 = d2 + rr * std::exp(-d2 / (4.0 * rr));
        row += vb[j] / std::sqrt(f2);
      }
    }
    total += ub[i] * row;
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
