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
/// bin-pair far field reads them: `n` consecutive bins, every plane
/// (representative radii included) starting at the node's first occupied
/// bin. n = 0 is an empty range.
struct BinMoments {
  const double* q;   ///< Q = Σq, the charge per bin
  const double* s;   ///< S = Σq·R, the Born-radius moment
  const double* px;  ///< P = Σq·(x − c), the charge dipole about the
  const double* py;  ///< node centroid c, one plane per axis
  const double* pz;
  const double* rep;  ///< representative radius of each bin
  int n;              ///< bins in the range

  /// Whether the far field evaluates bin k: any moment nonzero. An empty
  /// bin, or one whose atoms all carry zero charge, contributes nothing.
  bool occupied(int k) const {
    return q[k] != 0.0 || s[k] != 0.0 || px[k] != 0.0 || py[k] != 0.0 ||
           pz[k] != 0.0;
  }
};

namespace detail {

/// One term of the first-order bin-pair far field: u-bin i against the
/// v-bin with representative radius r, charge qj, Born-radius moment sj
/// and D·P_j = aj, at separation D = (dx, dy, dz), d² = d2:
///   Q_i Q_j / f − (1 − e/4)·f⁻³·(D·P_i Q_j − Q_i D·P_j)
///     − ½·e·(1 + x)·f⁻³·(S_i S_j − rr·Q_i Q_j)
/// with rr = rep_i·r, x = d²/(4rr), e = exp(−x), f² = d² + rr·e. The
/// scalar table's far_bins and the vector kernels' remainder tails both
/// call it, so the tails are bitwise the scalar code by construction.
/// `static`: every translation unit keeps its own copy, compiled under
/// its own ISA flags (see the ODR note in simd/pack.hpp).
template <bool Fast>
static inline double far_term(const BinMoments& u, int i, double r,
                              double qj, double sj, double aj, double dx,
                              double dy, double dz, double d2) {
  const double bi = dx * u.px[i] + dy * u.py[i] + dz * u.pz[i];
  const double qq = u.q[i] * qj;
  const double rr = u.rep[i] * r;
  const double x = d2 / (4.0 * rr);
  const double e = Fast ? fast_exp(-x) : std::exp(-x);
  const double f2 = d2 + rr * e;
  double inv_f, t;  // 1/f and f⁻³
  if constexpr (Fast) {
    inv_f = fast_rsqrt(f2);
    t = inv_f * inv_f * inv_f;
  } else {
    t = 1.0 / (f2 * std::sqrt(f2));
    inv_f = f2 * t;
  }
  return qq * inv_f - t * ((1.0 - 0.25 * e) * (bi * qj - u.q[i] * aj) +
                           0.5 * e * (1.0 + x) * (u.s[i] * sj - rr * qq));
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
