#include "octgb/core/forces.hpp"

#include <cmath>

#include "epol_walk.hpp"
#include "octgb/core/epol.hpp"
#include "octgb/util/check.hpp"

namespace octgb::core {

namespace {

using detail::EpolCounts;
using geom::Vec3;
using octree::Octree;

}  // namespace

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

  double near(std::uint32_t, const Octree::Node& u, EpolCounts& lc) const {
    const auto pts = ta.tree.points();
    for (std::uint32_t vi = v.begin; vi < v.end; ++vi) {
      const Vec3 pv = pts[vi];
      const double qv = ta.charge[vi];
      const double rv = born_tree[vi];
      Vec3 f;
      for (std::uint32_t ui = u.begin; ui < u.end; ++ui) {
        if (ui == vi) continue;  // self term has zero gradient
        const Vec3 delta = pv - pts[ui];
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
    // Far node U acts on each V atom through the first-order bin-pair
    // potential of the energy's far field (DESIGN.md §2.1); the V atom is
    // one bin of its own (P = 0, S = q·R), so per U bin i
    //   E_i = q_v [Q_i h + g1·(D·P_i) + g2·R_v·(S_i − rep_i Q_i)],
    // D = c_U − x_v, h = 1/f, g1 = 2∂h/∂d², g2 = ∂h/∂(rr). With
    // δ = x_v − c_U = −D, g = (1 − e/4)/f³ (= −g1) and ' = ∂/∂d²,
    //   ∇_v E_i = q_v (δ·[−Q_i g + 2g1'·(D·P_i) + 2g2'·R_v(S_i − rep_i Q_i)]
    //                  + g·P_i),
    // with dg1 = 2g1' and dg2 = 2g2' below.
    const BinMoments m = ctx.moments(u_id);
    const Octree::Node& u = ta.tree.node(u_id);
    const auto pts = ta.tree.points();
    for (std::uint32_t vi = v.begin; vi < v.end; ++vi) {
      const Vec3 pv = pts[vi];
      const double qv = ta.charge[vi];
      const double rv = born_tree[vi];
      const Vec3 delta = pv - u.centroid;
      const double r2 = delta.norm2();
      double coef = 0.0;
      Vec3 dip;
      for (int i = 0; i < m.n; ++i) {
        if (!m.occupied(i)) continue;
        const Vec3 p{m.px[i], m.py[i], m.pz[i]};
        const double rr = m.rep[i] * rv;
        const double x = r2 / (4.0 * rr);
        const double e = std::exp(-x);
        const double f2 = r2 + rr * e;
        const double t = 1.0 / (f2 * std::sqrt(f2));  // f⁻³
        const double fp = 1.0 - 0.25 * e;              // ∂f²/∂d²
        const double g = fp * t;
        const double dg1 = 3.0 * fp * fp * t / f2 - e * t / (8.0 * rr);
        const double dg2 =
            e * t * (x / (4.0 * rr) + 1.5 * (1.0 + x) * fp / f2);
        coef += -m.q[i] * g - dg1 * delta.dot(p) +
                dg2 * rv * (m.s[i] - m.rep[i] * m.q[i]);
        dip += p * g;
        ++lc.binpairs;
      }
      forces[vi] += (delta * coef + dip) * (tau * qv);
    }
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
  const double k = epol_threshold(engine.config().approx.eps_epol);
  const double tau = engine.config().gb.tau();

  std::vector<Vec3> forces_tree(engine.num_atoms());
  const auto& leaves = ta.tree.leaf_ids();
  detail::ordered_sum(
      leaves.size(), counters,
      [&](std::size_t lo, std::size_t hi, EpolCounts& lc) {
        for (std::size_t li = lo; li < hi; ++li) {
          const Octree::Node& v = ta.tree.node(leaves[li]);
          const ForceSink sink{ta, ctx, born_tree, tau, v, forces_tree.data()};
          detail::epol_walk(ta.tree, 0, v.centroid, v.radius, k, sink, lc);
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
