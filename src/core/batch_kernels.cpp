#include "octgb/core/batch_kernels.hpp"

#include <cmath>

#include "near_field.hpp"
#include "octgb/core/fastmath.hpp"
#include "octgb/util/check.hpp"

namespace octgb::core {

void split_soa(std::span<const geom::Vec3> pts, std::span<double> x,
               std::span<double> y, std::span<double> z) {
  OCTGB_CHECK(x.size() == pts.size() && y.size() == pts.size() &&
              z.size() == pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    x[i] = pts[i].x;
    y[i] = pts[i].y;
    z[i] = pts[i].z;
  }
}

double batch_born_integral(double ax, double ay, double az,
                           const QPointBatch& q) {
  const std::size_t n = q.size();
  const double* __restrict qx = q.x.data();
  const double* __restrict qy = q.y.data();
  const double* __restrict qz = q.z.data();
  const double* __restrict wnx = q.wnx.data();
  const double* __restrict wny = q.wny.data();
  const double* __restrict wnz = q.wnz.data();
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double dx = qx[k] - ax;
    const double dy = qy[k] - ay;
    const double dz = qz[k] - az;
    const double r2 = dx * dx + dy * dy + dz * dz;
    // Branchless guard: coincident points contribute 0.
    const double mask = r2 > 1e-12 ? 1.0 : 0.0;
    const double safe_r2 = r2 + (1.0 - mask);  // avoid 0 division
    const double inv_r6 = 1.0 / (safe_r2 * safe_r2 * safe_r2);
    sum += mask * (wnx[k] * dx + wny[k] * dy + wnz[k] * dz) * inv_r6;
  }
  return sum;
}

double batch_epol_sum(double vx, double vy, double vz, double qv, double rv,
                      const AtomBatch& atoms) {
  const std::size_t n = atoms.size();
  const double* __restrict ux = atoms.x.data();
  const double* __restrict uy = atoms.y.data();
  const double* __restrict uz = atoms.z.data();
  const double* __restrict qu = atoms.charge.data();
  const double* __restrict ru = atoms.born.data();
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double dx = ux[k] - vx;
    const double dy = uy[k] - vy;
    const double dz = uz[k] - vz;
    const double r2 = dx * dx + dy * dy + dz * dz;
    const double d = ru[k] * rv;
    const double f2 = r2 + d * std::exp(-r2 / (4.0 * d));
    sum += qu[k] / std::sqrt(f2);
  }
  return qv * sum;
}

double batch_born_integral_fast(double ax, double ay, double az,
                                const QPointBatch& q) {
  const std::size_t n = q.size();
  const double* __restrict qx = q.x.data();
  const double* __restrict qy = q.y.data();
  const double* __restrict qz = q.z.data();
  const double* __restrict wnx = q.wnx.data();
  const double* __restrict wny = q.wny.data();
  const double* __restrict wnz = q.wnz.data();
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double dx = qx[k] - ax;
    const double dy = qy[k] - ay;
    const double dz = qz[k] - az;
    const double r2 = dx * dx + dy * dy + dz * dz;
    const double mask = r2 > 1e-12 ? 1.0 : 0.0;
    const double safe_r2 = r2 + (1.0 - mask);
    const double t = fast_rsqrt(safe_r2);
    const double t2 = t * t;
    const double inv_r6 = t2 * t2 * t2;
    sum += mask * (wnx[k] * dx + wny[k] * dy + wnz[k] * dz) * inv_r6;
  }
  return sum;
}

double batch_epol_sum_fast(double vx, double vy, double vz, double qv,
                           double rv, const AtomBatch& atoms) {
  const std::size_t n = atoms.size();
  const double* __restrict ux = atoms.x.data();
  const double* __restrict uy = atoms.y.data();
  const double* __restrict uz = atoms.z.data();
  const double* __restrict qu = atoms.charge.data();
  const double* __restrict ru = atoms.born.data();
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double dx = ux[k] - vx;
    const double dy = uy[k] - vy;
    const double dz = uz[k] - vz;
    const double r2 = dx * dx + dy * dy + dz * dz;
    const double d = ru[k] * rv;
    const double f2 = r2 + d * fast_exp(-r2 / (4.0 * d));
    sum += qu[k] * fast_rsqrt(f2);
  }
  return qv * sum;
}

namespace {

/// Second-order bin-pair far field of the Scalar ISA
/// (KernelSet::FarBinsFn contract): the skip-empty loop over both bin
/// ranges, V bins outer, one detail::far_term per occupied pair summed
/// into a per-row accumulator — the order the vector kernels' remainder
/// tails keep (simd/kernels_impl.hpp).
template <bool Fast>
double far_bins(const BinMoments& u, const BinMoments& v, double dx,
                double dy, double dz, double d2, std::uint64_t& binpairs) {
  double sum = 0.0;
  for (int j = 0; j < v.n; ++j) {
    if (!v.occupied(j)) continue;
    const detail::FarBinV vj = detail::far_bin_v(v, j, dx, dy, dz);
    double row = 0.0;
    for (int i = 0; i < u.n; ++i) {
      if (!u.occupied(i)) continue;
      row += detail::far_term<Fast>(u, i, vj, dx, dy, dz, d2);
      ++binpairs;
    }
    sum += row;
  }
  return sum;
}

constexpr simd::KernelSet kScalarKernels{
    .born_integral = batch_born_integral,
    .born_integral_fast = batch_born_integral_fast,
    .epol_sum = batch_epol_sum,
    .epol_sum_fast = batch_epol_sum_fast,
    .epol_far_bins = far_bins<false>,
    .epol_far_bins_fast = far_bins<true>,
};

}  // namespace

const simd::KernelSet& detail::scalar_kernels() { return kScalarKernels; }

}  // namespace octgb::core
