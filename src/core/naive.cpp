#include "octgb/core/naive.hpp"

#include <cmath>
#include <numbers>

#include "octgb/core/batch_kernels.hpp"
#include "octgb/core/fastmath.hpp"
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
                                     perf::WorkCounters* counters,
                                     KernelKind kernel) {
  const auto atoms = mol.atoms();
  std::vector<double> born(atoms.size());
  if (kernel == KernelKind::Batched) {
    // Gather the surface into SoA scratch once (O(N)), then sweep it per
    // atom with the vectorization-friendly batch kernel (O(M·N)).
    const std::size_t n = surf.size();
    std::vector<double> qx(n), qy(n), qz(n), wnx(n), wny(n), wnz(n);
    split_soa(surf.positions, qx, qy, qz);
    for (std::size_t k = 0; k < n; ++k) {
      wnx[k] = surf.weights[k] * surf.normals[k].x;
      wny[k] = surf.weights[k] * surf.normals[k].y;
      wnz[k] = surf.weights[k] * surf.normals[k].z;
    }
    const QPointBatch qb{qx, qy, qz, wnx, wny, wnz};
    for_each_atom(atoms.size(), [&](std::size_t i) {
      const geom::Vec3 x = atoms[i].pos;
      born[i] = finalize_born_radius(batch_born_integral(x.x, x.y, x.z, qb),
                                     atoms[i].radius);
    });
  } else {
    for_each_atom(atoms.size(), [&](std::size_t i) {
      const geom::Vec3 x = atoms[i].pos;
      double s = 0.0;
      for (std::size_t k = 0; k < surf.size(); ++k) {
        const geom::Vec3 d = surf.positions[k] - x;
        const double r2 = d.norm2();
        if (r2 <= 1e-12) continue;  // quadrature point on the atom center
        const double r6 = r2 * r2 * r2;
        s += surf.weights[k] * d.dot(surf.normals[k]) / r6;
      }
      born[i] = finalize_born_radius(s, atoms[i].radius);
    });
  }
  if (counters) {
    counters->born_exact +=
        static_cast<std::uint64_t>(atoms.size()) * surf.size();
    counters->push_atoms += atoms.size();
  }
  return born;
}

double naive_epol(const mol::Molecule& mol, std::span<const double> born,
                  const GBParams& gb, perf::WorkCounters* counters,
                  KernelKind kernel) {
  const auto atoms = mol.atoms();
  OCTGB_CHECK_MSG(born.size() == atoms.size(),
                  "born radii size mismatch: " << born.size() << " vs "
                                               << atoms.size());
  double e = 0.0;
  if (kernel == KernelKind::Batched) {
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
    // Rows in parallel, each into its own slot; added in row order, so
    // the sum is the serial row loop's at any worker count.
    std::vector<double> row(n);
    for_each_atom(n, [&](std::size_t i) {
      row[i] = batch_epol_sum(x[i], y[i], z[i], q[i], born[i], all);
    });
    for (const double r : row) e += r;
  } else {
    // Ordered-pair sum = diagonal + 2 × (unordered off-diagonal pairs).
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      e += atoms[i].charge * atoms[i].charge / born[i];  // f_GB(0) = R_i
      for (std::size_t j = i + 1; j < atoms.size(); ++j) {
        const double r2 = geom::dist2(atoms[i].pos, atoms[j].pos);
        e += 2.0 * atoms[i].charge * atoms[j].charge /
             f_gb(r2, born[i] * born[j]);
      }
    }
  }
  if (counters) {
    counters->epol_exact +=
        static_cast<std::uint64_t>(atoms.size()) * atoms.size();
  }
  return -0.5 * gb.tau() * e;
}

}  // namespace octgb::core
