#pragma once
/// \file batch_kernels.hpp
/// Batched structure-of-arrays inner kernels.
///
/// The paper's related work notes Amber's *vectorized* shared-memory GB
/// ([32], Sosa et al.) and reports its own numbers with "no vectorization
/// used". These kernels are the vectorization-friendly formulation of the
/// two hot loops — the exact leaf×leaf Born integral and the exact
/// leaf×leaf GB energy — written over SoA buffers with no data-dependent
/// branches in the inner loop, so the compiler can auto-vectorize them.
/// They compute exactly the same sums as the scalar kernels up to
/// floating-point reassociation; bench_kernels compares their throughput.

#include <cmath>
#include <cstddef>
#include <span>

#include "octgb/core/fastmath.hpp"
#include "octgb/geom/vec3.hpp"

namespace octgb::core {

/// SoA view of a batch of quadrature points.
struct QPointBatch {
  std::span<const double> x, y, z;     ///< positions
  std::span<const double> wnx, wny, wnz;  ///< weighted normals w·n
  std::size_t size() const { return x.size(); }
};

/// SoA view of a batch of atoms (positions + charges + Born radii).
struct AtomBatch {
  std::span<const double> x, y, z;
  std::span<const double> charge;
  std::span<const double> born;
  std::size_t size() const { return x.size(); }
};

/// One node's per-bin Epol moments (EpolContext, core/epol.hpp) as the
/// bin-pair far field reads them: `n` consecutive bins, each moment a
/// plane of them, plane p of bin i at m[p·stride + i]; the representative
/// radii start at the same first bin. n = 0 is an empty range. With c
/// the node centroid, the planes hold, per bin:
///   Q = Σq,  S = Σq·R,  T = Σq·R²,
///   P = Σq·(x − c),  U = Σq·R·(x − c),  Θ = Σq·(x − c)(x − c)ᵀ,
/// Θ as its six entries xx, yy, zz, xy, xz, yz.
struct BinMoments {
  enum Plane : int {
    Q, S, T, Px, Py, Pz, Ux, Uy, Uz, Txx, Tyy, Tzz, Txy, Txz, Tyz,
    kPlanes
  };
  const double* m;     ///< the planes
  std::size_t stride;  ///< distance between planes, ≥ n
  const double* rep;   ///< representative radius of each bin
  int n;               ///< bins in the range

  const double* plane(int p) const { return m + p * stride; }
  double at(int p, int i) const { return m[p * stride + i]; }

  /// Whether the far field evaluates bin k: any moment nonzero. An empty
  /// bin, or one whose atoms all carry zero charge, contributes nothing;
  /// a bin whose charges cancel in Q, S and P may still carry Θ.
  bool occupied(int k) const {
    for (int p = 0; p < kPlanes; ++p)
      if (at(p, k) != 0.0) return true;
    return false;
  }
};

namespace detail {

/// The v-bin side of a far term, gathered once per v-bin: radius r,
/// Q, S, T, the projections a = D·P, b = D·U, c = DᵀΘD and tr Θ, and P.
struct FarBinV {
  double r, q, s, t, a, b, c, tr, px, py, pz;
};

/// DᵀΘD of a symmetric Θ given by its six entries.
static inline double quad_form(double dx, double dy, double dz, double xx,
                               double yy, double zz, double xy, double xz,
                               double yz) {
  return dx * (dx * xx + 2.0 * (dy * xy + dz * xz)) +
         dy * (dy * yy + 2.0 * dz * yz) + dz * dz * zz;
}

static inline FarBinV far_bin_v(const BinMoments& v, int j, double dx,
                                double dy, double dz) {
  using M = BinMoments;
  const double px = v.at(M::Px, j), py = v.at(M::Py, j), pz = v.at(M::Pz, j);
  return {v.rep[j],
          v.at(M::Q, j),
          v.at(M::S, j),
          v.at(M::T, j),
          dx * px + dy * py + dz * pz,
          dx * v.at(M::Ux, j) + dy * v.at(M::Uy, j) + dz * v.at(M::Uz, j),
          quad_form(dx, dy, dz, v.at(M::Txx, j), v.at(M::Tyy, j),
                    v.at(M::Tzz, j), v.at(M::Txy, j), v.at(M::Txz, j),
                    v.at(M::Tyz, j)),
          v.at(M::Txx, j) + v.at(M::Tyy, j) + v.at(M::Tzz, j),
          px,
          py,
          pz};
}

/// One term of the second-order bin-pair far field: u-bin i against the
/// v-bin `v`, at separation D = c_U − c_V = (dx, dy, dz), d² = d2. With
/// h(d², rr) = 1/f, f² = d² + rr·e, e = exp(−x), x = d²/(4rr), rr =
/// rep_i·rep_j, every atom pair (a, b) of the two bins is expanded about
/// the bin pair to second order in δ = u_a − v_b (offsets from the node
/// centroids) and ρ = R_a R_b − rr:
///   h + h_d·(2D·δ + |δ|²) + h_r·ρ + 2h_dd·(D·δ)² + 2h_dr·(D·δ)ρ
///     + ½h_rr·ρ²,
/// with h_d = ∂h/∂d² and h_r = ∂h/∂rr. Summed over the pairs, each term
/// closes over the bins' moments (DESIGN.md §2.1):
///   Σ 2D·δ  = 2(D·P_i Q_j − Q_i D·P_j)
///   Σ |δ|²  = Q_j tr Θ_i + Q_i tr Θ_j − 2 P_i·P_j
///   Σ (D·δ)² = Q_j DᵀΘ_iD + Q_i DᵀΘ_jD − 2 (D·P_i)(D·P_j)
///   Σ ρ    = S_i S_j − rr Q_i Q_j
///   Σ (D·δ)ρ = D·U_i S_j − S_i D·U_j + rr (Q_i D·P_j − D·P_i Q_j)
///   Σ ρ²   = T_i T_j − 2rr S_i S_j + rr² Q_i Q_j.
/// With F = f², F_d = 1 − e/4, F_r = e(1 + x) and a4 = 1/(4rr), the
/// derivatives are h_d = −½f⁻³F_d, h_r = −½f⁻³F_r,
///   h_dd = f⁻³(¾F_d²/F − ⅛e·a4),  h_dr = f⁻³(¾F_dF_r/F + ½e·x·a4),
///   h_rr = f⁻³(¾F_r²/F − 2e·x²·a4).
/// One exp, one sqrt and two divisions (a4 and f⁻³) per term; fastmath
/// replaces the sqrt and the second division by one fast_rsqrt. The
/// scalar table's far_bins and the vector kernels' remainder tails both
/// call it, so the tails are bitwise the scalar code by construction.
/// `static`: every translation unit keeps its own copy, compiled under
/// its own ISA flags (see the ODR note in simd/pack.hpp).
template <bool Fast>
static inline double far_term(const BinMoments& u, int i, const FarBinV& v,
                              double dx, double dy, double dz, double d2) {
  using M = BinMoments;
  const double qi = u.at(M::Q, i), si = u.at(M::S, i);
  const double pxi = u.at(M::Px, i), pyi = u.at(M::Py, i),
               pzi = u.at(M::Pz, i);
  const double xx = u.at(M::Txx, i), yy = u.at(M::Tyy, i),
               zz = u.at(M::Tzz, i);
  const double ai = dx * pxi + dy * pyi + dz * pzi;
  const double bi =
      dx * u.at(M::Ux, i) + dy * u.at(M::Uy, i) + dz * u.at(M::Uz, i);
  const double ci = quad_form(dx, dy, dz, xx, yy, zz, u.at(M::Txy, i),
                              u.at(M::Txz, i), u.at(M::Tyz, i));
  const double pp = pxi * v.px + pyi * v.py + pzi * v.pz;
  const double qq = qi * v.q;
  const double ss = si * v.s;
  const double rr = u.rep[i] * v.r;
  const double rq = rr * qq;
  const double b1 = 2.0 * (ai * v.q - qi * v.a) + v.q * (xx + yy + zz) +
                    qi * v.tr - 2.0 * pp;
  const double b2 = v.q * ci + qi * v.c - 2.0 * ai * v.a;
  const double b3 = ss - rq;
  const double b4 = bi * v.s - si * v.b + rr * (qi * v.a - ai * v.q);
  const double b5 = u.at(M::T, i) * v.t - 2.0 * rr * ss + rr * rq;
  const double a4 = 1.0 / (4.0 * rr);
  const double x = d2 * a4;
  const double e = Fast ? fast_exp(-x) : std::exp(-x);
  const double f2 = d2 + rr * e;
  double h, t;  // 1/f and f⁻³
  if constexpr (Fast) {
    h = fast_rsqrt(f2);
    t = h * h * h;
  } else {
    t = 1.0 / (f2 * std::sqrt(f2));
    h = f2 * t;
  }
  const double fd = 1.0 - 0.25 * e, fr = e * (1.0 + x);
  return qq * h +
         t * (0.75 * h * h * (2.0 * fd * (fd * b2 + fr * b4) +
                              0.5 * fr * fr * b5) -
              0.5 * (fd * b1 + fr * b3) +
              e * a4 * (x * (b4 - x * b5) - 0.25 * b2));
}

}  // namespace detail

/// Born surface integral of one atom at (ax, ay, az) against a q-point
/// batch: Σ w·n · (r − a) / |r − a|⁶. Points closer than 1e-6 are skipped
/// branchlessly (their term is multiplied by 0).
double batch_born_integral(double ax, double ay, double az,
                           const QPointBatch& q);

/// Exact GB pair sum of one atom (position, charge qv, radius rv) against
/// an atom batch: Σ q_u qv / f_GB(r², R_u rv). The diagonal (r ≈ 0 with
/// the same atom) is NOT excluded — callers slice batches accordingly
/// (the octree kernels include the self term by design).
double batch_epol_sum(double vx, double vy, double vz, double qv, double rv,
                      const AtomBatch& atoms);

/// Approximate-math variant of batch_born_integral (§V-C): per-term math
/// matches the scalar path's inv_r6(r², approx_math = true), i.e. 1/r⁶
/// via fast_rsqrt, so the batched fastmath mode differs from the scalar
/// fastmath mode only by reassociation.
double batch_born_integral_fast(double ax, double ay, double az,
                                const QPointBatch& q);

/// Approximate-math variant of batch_epol_sum: 1/f_GB via fast_rsqrt and
/// fast_exp, matching the scalar path's approximate inv_f_gb term by term.
double batch_epol_sum_fast(double vx, double vy, double vz, double qv,
                           double rv, const AtomBatch& atoms);

/// Convert AoS Vec3 positions to three SoA arrays (helper for adapters
/// and tests).
void split_soa(std::span<const geom::Vec3> pts, std::span<double> x,
               std::span<double> y, std::span<double> z);

}  // namespace octgb::core
