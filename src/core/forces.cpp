#include "octgb/core/forces.hpp"

#include <cmath>

#include "epol_walk.hpp"
#include "near_field.hpp"
#include "octgb/core/epol.hpp"
#include "octgb/util/check.hpp"

namespace octgb::core {

namespace {

using detail::EpolCounts;
using geom::Vec3;
using octree::Octree;

}  // namespace

Vec3 detail::far_atom_gradient(const BinMoments& u, const Vec3& delta,
                               double rv, std::uint64_t& binpairs) {
  // Per u-bin i, with D = c_U − x_v = −δ, d² = |δ|², rr = rep_i·rv and
  // the V atom's moments, the far term (detail::far_term) reduces to
  //   Φ_i = Q h + h_d(2D·P + tr Θ) + 2h_dd DᵀΘD + h_r σ1 + 2h_dr D·W
  //         + ½h_rr σ2,
  // σ1 = rv(S − rep·Q), W = rv(U − rep·P), σ2 = rv²(T − 2rep·S + rep²Q).
  // Differentiating in x_v (∂d²/∂x_v = 2δ, the h's through d² only):
  //   ∇Φ_i = 2δ·K − 2h_d P + 4h_dd Θδ − 2h_dr W,
  //   K = Q h_d + h_dd(tr Θ − 2δ·P) + 2h_ddd δᵀΘδ + h_dr σ1
  //       − 2h_ddr δ·W + ½h_drr σ2.
  // h = φ(F) with φ = F^(−½) and F = f²; its derivatives come from φ′,
  // φ″, φ‴ and those of F (a = 1/(4rr), x = d²·a, e = exp(−x)):
  //   F_d = 1 − e/4, F_dd = a·e/4, F_ddd = −a²e/4, F_r = e(1 + x),
  //   F_dr = −a·e·x, F_ddr = a²e(x − 1), F_rr = 4a·e·x²,
  //   F_drr = 4a²e·x(2 − x).
  using M = BinMoments;
  const double d2 = delta.norm2();
  Vec3 grad;
  for (int i = 0; i < u.n; ++i) {
    if (!u.occupied(i)) continue;
    ++binpairs;
    const double rep = u.rep[i];
    const double q = u.at(M::Q, i), s = u.at(M::S, i);
    const Vec3 p{u.at(M::Px, i), u.at(M::Py, i), u.at(M::Pz, i)};
    const Vec3 w =
        (Vec3{u.at(M::Ux, i), u.at(M::Uy, i), u.at(M::Uz, i)} - p * rep) *
        rv;
    const double xx = u.at(M::Txx, i), yy = u.at(M::Tyy, i),
                 zz = u.at(M::Tzz, i), xy = u.at(M::Txy, i),
                 xz = u.at(M::Txz, i), yz = u.at(M::Tyz, i);
    const Vec3 th{xx * delta.x + xy * delta.y + xz * delta.z,
                  xy * delta.x + yy * delta.y + yz * delta.z,
                  xz * delta.x + yz * delta.y + zz * delta.z};  // Θδ
    const double s1 = rv * (s - rep * q);
    const double s2 =
        rv * rv * (u.at(M::T, i) - 2.0 * rep * s + rep * rep * q);

    const double rr = rep * rv;
    const double a = 1.0 / (4.0 * rr);
    const double x = d2 * a;
    const double e = std::exp(-x);
    const double f2 = d2 + rr * e;
    const double t = 1.0 / (f2 * std::sqrt(f2));  // f⁻³
    const double inv_f2 = 1.0 / f2;
    const double p1 = -0.5 * t, p2 = 0.75 * t * inv_f2,
                 p3 = -1.875 * t * inv_f2 * inv_f2;  // φ′, φ″, φ‴
    const double fd = 1.0 - 0.25 * e, fdd = 0.25 * a * e,
                 fddd = -0.25 * a * a * e, fr = e * (1.0 + x),
                 fdr = -a * e * x, fddr = a * a * e * (x - 1.0),
                 frr = 4.0 * a * e * x * x,
                 fdrr = 4.0 * a * a * e * x * (2.0 - x);
    const double hd = p1 * fd;
    const double hdd = p2 * fd * fd + p1 * fdd;
    const double hdr = p2 * fd * fr + p1 * fdr;
    const double hddd = p3 * fd * fd * fd + 3.0 * p2 * fd * fdd + p1 * fddd;
    const double hddr =
        p3 * fd * fd * fr + p2 * (2.0 * fd * fdr + fdd * fr) + p1 * fddr;
    const double hdrr =
        p3 * fd * fr * fr + p2 * (2.0 * fdr * fr + fd * frr) + p1 * fdrr;

    const double k = q * hd + hdd * (xx + yy + zz - 2.0 * delta.dot(p)) +
                     2.0 * hddd * delta.dot(th) + hdr * s1 -
                     2.0 * hddr * delta.dot(w) + 0.5 * hdrr * s2;
    grad += delta * (2.0 * k) - p * (2.0 * hd) + th * (4.0 * hdd) -
            w * (2.0 * hdr);
  }
  return grad;
}

double epol_force_kernel(double r2, double ri_rj) {
  const double e = std::exp(-r2 / (4.0 * ri_rj));
  const double f2 = r2 + ri_rj * e;
  const double f = std::sqrt(f2);
  return (1.0 - 0.25 * e) / (f2 * f);
}

std::vector<geom::Vec3> naive_epol_forces(const mol::Molecule& mol,
                                          std::span<const double> born,
                                          const GBParams& gb,
                                          perf::WorkCounters* counters) {
  const auto atoms = mol.atoms();
  OCTGB_CHECK(born.size() == atoms.size());
  std::vector<Vec3> forces(atoms.size());
  const double tau = gb.tau();
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    for (std::size_t j = i + 1; j < atoms.size(); ++j) {
      const Vec3 delta = atoms[i].pos - atoms[j].pos;
      const double g =
          epol_force_kernel(delta.norm2(), born[i] * born[j]);
      // ∇_i E = +τ q_i q_j g (x_i − x_j); the force is −∇E. The pair
      // contributes equal-and-opposite forces (Newton's third law).
      const Vec3 fij =
          delta * (-tau * atoms[i].charge * atoms[j].charge * g);
      forces[i] += fij;
      forces[j] -= fij;
    }
  }
  if (counters)
    counters->epol_exact +=
        static_cast<std::uint64_t>(atoms.size()) * atoms.size();
  return forces;
}

namespace {

/// Force sink of the Epol walk: the force on every atom of the V leaf `v`
/// from the whole tree, reusing the Epol admissibility and bins. It adds
/// straight into v's own range of `forces` (tree order); V leaves are
/// disjoint, so every slot has one writer.
struct ForceSink {
  const AtomsTree& ta;
  const EpolContext& ctx;
  std::span<const double> born_tree;
  double tau;
  const Octree::Node& v;
  Vec3* forces;

  double near(std::uint32_t, std::uint32_t, const Octree::Node& u,
              EpolCounts& lc) const {
    for (std::uint32_t vi = v.begin; vi < v.end; ++vi) {
      const Vec3 pv = ta.tree.point(vi);
      const double qv = ta.charge[vi];
      const double rv = born_tree[vi];
      Vec3 f;
      for (std::uint32_t ui = u.begin; ui < u.end; ++ui) {
        if (ui == vi) continue;  // self term has zero gradient
        const Vec3 delta = pv - ta.tree.point(ui);
        const double g =
            epol_force_kernel(delta.norm2(), born_tree[ui] * rv);
        f += delta * (ta.charge[ui] * g);
      }
      forces[vi] += f * (-tau * qv);
    }
    lc.exact += static_cast<std::uint64_t>(u.size()) * v.size();
    return 0.0;
  }

  double far(std::uint32_t u_id, const Vec3&, double, EpolCounts& lc) const {
    // Far node U acts on each V atom through the energy's second-order
    // bin-pair far field (DESIGN.md §2.1), the atom one bin of its own.
    const BinMoments m = ctx.moments(u_id);
    const Vec3 c = ta.tree.node(u_id).centroid;
    for (std::uint32_t vi = v.begin; vi < v.end; ++vi)
      forces[vi] += detail::far_atom_gradient(m, ta.tree.point(vi) - c,
                                              born_tree[vi], lc.binpairs) *
                    (tau * ta.charge[vi]);
    return 0.0;
  }
};

}  // namespace

std::vector<geom::Vec3> approx_epol_forces(
    const GBEngine& engine, std::span<const double> born_input_order,
    perf::WorkCounters& counters) {
  const auto& ta = engine.atoms_tree();
  OCTGB_CHECK(born_input_order.size() == engine.num_atoms());
  const auto idx = ta.tree.point_index();
  std::vector<double> born_tree(born_input_order.size());
  for (std::size_t pos = 0; pos < idx.size(); ++pos)
    born_tree[pos] = born_input_order[idx[pos]];
  const EpolContext ctx = engine.build_epol_context(born_tree);
  const double k = epol_force_threshold(engine.config().approx.eps_epol);
  const double tau = engine.config().gb.tau();

  std::vector<Vec3> forces_tree(engine.num_atoms());
  const auto& leaves = ta.tree.leaf_ids();
  detail::ordered_sum(
      leaves.size(), counters,
      [&](std::size_t lo, std::size_t hi, EpolCounts& lc) {
        for (std::size_t li = lo; li < hi; ++li) {
          const Octree::Node& v = ta.tree.node(leaves[li]);
          const ForceSink sink{ta, ctx, born_tree, tau, v, forces_tree.data()};
          detail::epol_walk(ta.tree, v.centroid, v.radius, k, sink, lc);
        }
        return 0.0;
      });

  // Back to input order.
  std::vector<Vec3> forces(forces_tree.size());
  for (std::size_t pos = 0; pos < idx.size(); ++pos)
    forces[idx[pos]] = forces_tree[pos];
  return forces;
}

}  // namespace octgb::core
