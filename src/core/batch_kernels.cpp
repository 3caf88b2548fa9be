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

/// Bin-pair far field of the Scalar ISA: the skip-zeros loop over the
/// nonzero bins of both tables (KernelSet::FarBinsFn contract).
template <bool Fast>
double far_bins(const double* ub, int ulo, int uhi, const double* rep_u,
                const double* vb, int vlo, int vhi, const double* rep_v,
                double d2, std::uint64_t& binpairs) {
  double sum = 0.0;
  for (int i = ulo; i <= uhi; ++i) {
    if (ub[i] == 0.0) continue;
    for (int j = vlo; j <= vhi; ++j) {
      if (vb[j] == 0.0) continue;
      sum += ub[i] * vb[j] * detail::inv_f_gb(d2, rep_u[i] * rep_v[j], Fast);
      ++binpairs;
    }
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
