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

#include <cstddef>
#include <span>

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
