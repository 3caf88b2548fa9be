#include "octgb/baselines/descreening.hpp"

#include <cmath>
#include <numbers>

#include "octgb/util/check.hpp"

namespace octgb::baselines {

namespace {

/// The HCT pair descreening integral I(r, s, rho): the amount atom j
/// (scaled radius s at distance r) descreens atom i (reduced radius rho).
/// Hawkins, Cramer & Truhlar 1996, Eq. 6–8 (as used by Amber's igb=1).
double hct_integral(double r, double s, double rho) {
  if (r + s <= rho) return 0.0;  // j entirely inside i: no descreening
  const double L = (r - s >= rho) ? (r - s) : rho;
  const double U = r + s;
  const double invL = 1.0 / L;
  const double invU = 1.0 / U;
  return 0.5 * ((invL - invU) + 0.25 * r * (invU * invU - invL * invL) +
                (0.5 / r) * std::log(L / U) +
                (0.25 * s * s / r) * (invL * invL - invU * invU));
}

}  // namespace

std::vector<double> pairwise_born_radii(const mol::Molecule& mol,
                                        const octree::NbList& nblist,
                                        BornModel model,
                                        const DescreeningParams& params,
                                        perf::WorkCounters* counters) {
  const auto atoms = mol.atoms();
  OCTGB_CHECK_MSG(nblist.num_points() == atoms.size(),
                  "nblist/molecule size mismatch");
  std::vector<double> born(atoms.size());
  std::uint64_t pairs = 0;

  for (std::size_t i = 0; i < atoms.size(); ++i) {
    const double rho_full = atoms[i].radius;
    const double rho = std::max(0.5, rho_full - params.dielectric_offset);

    if (model == BornModel::Still) {
      // Qiu et al. 1997 style volume descreening: each neighbor's volume
      // reduces the solvent integral as V_j / (4π r⁴) · P4.
      double inv_r = 1.0 / rho_full;
      for (std::uint32_t j : nblist.neighbors(i)) {
        const double r = geom::dist(atoms[i].pos, atoms[j].pos);
        if (r < 1e-6) continue;
        const double vj = (4.0 / 3.0) * std::numbers::pi *
                          atoms[j].radius * atoms[j].radius * atoms[j].radius;
        inv_r -= params.still_p4 * vj /
                 (4.0 * std::numbers::pi * r * r * r * r);
        ++pairs;
      }
      born[i] = inv_r > 1e-4 ? 1.0 / inv_r : params.max_born;
      born[i] = std::clamp(born[i], rho_full, params.max_born);
      continue;
    }

    // HCT / OBC share the descreening sum.
    double sum = 0.0;
    for (std::uint32_t j : nblist.neighbors(i)) {
      const double r = geom::dist(atoms[i].pos, atoms[j].pos);
      if (r < 1e-6) continue;
      const double s = params.hct_scale *
                       (atoms[j].radius - params.dielectric_offset);
      sum += hct_integral(r, s, rho);
      ++pairs;
    }

    if (model == BornModel::HCT) {
      const double inv = 1.0 / rho - sum;
      born[i] = inv > 1e-4 ? 1.0 / inv : params.max_born;
    } else {  // OBC
      const double psi = sum * rho;
      const double t = std::tanh(params.obc_alpha * psi -
                                 params.obc_beta * psi * psi +
                                 params.obc_gamma * psi * psi * psi);
      const double inv = 1.0 / rho - t / rho_full;
      born[i] = inv > 1e-4 ? 1.0 / inv : params.max_born;
    }
    born[i] = std::clamp(born[i], rho_full, params.max_born);
  }
  if (counters) counters->pairlist_pairs += pairs;
  return born;
}

}  // namespace octgb::baselines
