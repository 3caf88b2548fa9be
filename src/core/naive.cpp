#include "octgb/core/naive.hpp"

#include <cmath>
#include <numbers>

#include "octgb/core/batch_kernels.hpp"
#include "octgb/core/fastmath.hpp"
#include "octgb/simd/dispatch.hpp"
#include "octgb/util/check.hpp"
#include "octgb/ws/scheduler.hpp"

namespace octgb::core {

namespace {

/// Run `f(i)` for every atom i in [0, n): a parallel_for over atom blocks
/// under an active scheduler, serial otherwise. Each atom's radius is
/// its own sum, so the bits do not depend on the schedule.
template <class F>
void for_each_atom(std::size_t n, const F& f) {
  ws::Scheduler::parallel_for(
      0, static_cast<std::int64_t>(n), 16,
      [&f](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i)
          f(static_cast<std::size_t>(i));
      });
}

}  // namespace

double finalize_born_radius(double integral, double vdw_radius,
                            bool approx_math) {
  const double s = integral / (4.0 * std::numbers::pi);
  if (s <= 1.0 / (kMaxBornRadius * kMaxBornRadius * kMaxBornRadius))
    return kMaxBornRadius;
  const double r = approx_math ? fast_inv_cbrt(s) : 1.0 / std::cbrt(s);
  return std::max(vdw_radius, std::min(r, kMaxBornRadius));
}

std::vector<double> naive_born_radii(const mol::Molecule& mol,
                                     const surface::Surface& surf,
                                     perf::WorkCounters* counters) {
  const auto atoms = mol.atoms();
  std::vector<double> born(atoms.size());
  // Gather the surface into SoA scratch once (O(N)), then sweep it per
  // atom with the Scalar ISA's Born kernel (O(M·N)).
  const std::size_t n = surf.size();
  std::vector<double> qx(n), qy(n), qz(n), wnx(n), wny(n), wnz(n);
  split_soa(surf.positions, qx, qy, qz);
  for (std::size_t k = 0; k < n; ++k) {
    wnx[k] = surf.weights[k] * surf.normals[k].x;
    wny[k] = surf.weights[k] * surf.normals[k].y;
    wnz[k] = surf.weights[k] * surf.normals[k].z;
  }
  const QPointBatch qb{qx, qy, qz, wnx, wny, wnz};
  const auto born_integral =
      simd::kernels(simd::VectorIsa::Scalar)->born_integral;
  for_each_atom(atoms.size(), [&](std::size_t i) {
    const geom::Vec3 x = atoms[i].pos;
    born[i] = finalize_born_radius(born_integral(x.x, x.y, x.z, qb),
                                   atoms[i].radius);
  });
  if (counters) {
    counters->born_exact +=
        static_cast<std::uint64_t>(atoms.size()) * surf.size();
    counters->push_atoms += atoms.size();
  }
  return born;
}

double naive_epol(const mol::Molecule& mol, std::span<const double> born,
                  const GBParams& gb, perf::WorkCounters* counters) {
  const auto atoms = mol.atoms();
  OCTGB_CHECK_MSG(born.size() == atoms.size(),
                  "born radii size mismatch: " << born.size() << " vs "
                                               << atoms.size());
  // Full ordered-pair sum row by row: Σ_i q_i Σ_j q_j / f_GB. The i = j
  // term is the diagonal q²/R (f_GB(0) = R), included by the kernel.
  const std::size_t n = atoms.size();
  std::vector<double> x(n), y(n), z(n), q(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = atoms[i].pos.x;
    y[i] = atoms[i].pos.y;
    z[i] = atoms[i].pos.z;
    q[i] = atoms[i].charge;
  }
  const AtomBatch all{x, y, z, q, born};
  const auto epol_sum = simd::kernels(simd::VectorIsa::Scalar)->epol_sum;
  // Rows in parallel, each into its own slot; added in row order, so the
  // sum is the serial row loop's at any worker count.
  std::vector<double> row(n);
  for_each_atom(n, [&](std::size_t i) {
    row[i] = epol_sum(x[i], y[i], z[i], q[i], born[i], all);
  });
  double e = 0.0;
  for (const double r : row) e += r;
  if (counters) {
    counters->epol_exact +=
        static_cast<std::uint64_t>(atoms.size()) * atoms.size();
  }
  return -0.5 * gb.tau() * e;
}

}  // namespace octgb::core
