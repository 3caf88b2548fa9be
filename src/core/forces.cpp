#include "octgb/core/forces.hpp"

#include <cmath>

#include "atomic_add.hpp"
#include "octgb/core/epol.hpp"
#include "octgb/util/check.hpp"
#include "octgb/ws/scheduler.hpp"

namespace octgb::core {

namespace {

using geom::Vec3;
using octree::Octree;
using detail::atomic_add;

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

/// Leaf-versus-tree force pass: accumulates the force on every atom of a
/// V leaf from the whole tree, reusing the Epol admissibility and bins.
struct ForcePass {
  const AtomsTree& ta;
  const EpolContext& ctx;
  std::span<const double> born_tree;
  double eps;
  double tau;
  const Octree::Node* v;  ///< the V leaf

  // Accumulators for the V leaf's atoms (tree order, offset by v->begin).
  std::vector<Vec3>* v_forces;

  std::uint64_t exact = 0, bins = 0, visits = 0;

  void descend(std::uint32_t u_id) {
    ++visits;
    const Octree::Node& u = ta.tree.node(u_id);
    const double d = geom::dist(u.centroid, v->centroid);
    if (u.is_leaf()) {
      exact_leaf(u);
      return;
    }
    if (epol_far_enough(d, u.radius, v->radius, eps)) {
      far_field(u_id);
      return;
    }
    for (std::uint8_t c = 0; c < u.child_count; ++c)
      descend(u.first_child + c);
  }

  void exact_leaf(const Octree::Node& u) {
    const auto pts = ta.tree.points();
    for (std::uint32_t vi = v->begin; vi < v->end; ++vi) {
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
      (*v_forces)[vi - v->begin] += f * (-tau * qv);
    }
    exact += static_cast<std::uint64_t>(u.size()) * v->size();
  }

  void far_field(std::uint32_t u_id) {
    // Far node U acts on each atom of V as charge-per-bin point masses at
    // U's centroid — the force analogue of the binned f_GB sum.
    const int nb = ctx.nbins;
    const double* ub = ctx.bins.data() + static_cast<std::size_t>(u_id) * nb;
    const Octree::Node& u = ta.tree.node(u_id);
    const auto pts = ta.tree.points();
    for (std::uint32_t vi = v->begin; vi < v->end; ++vi) {
      const Vec3 pv = pts[vi];
      const double qv = ta.charge[vi];
      const double rv = born_tree[vi];
      const Vec3 delta = pv - u.centroid;
      const double r2 = delta.norm2();
      double gsum = 0.0;
      for (int i = ctx.bin_lo[u_id]; i <= ctx.bin_hi[u_id]; ++i) {
        if (ub[i] == 0.0) continue;
        gsum += ub[i] * epol_force_kernel(r2, ctx.rep[i] * rv);
        ++bins;
      }
      (*v_forces)[vi - v->begin] += delta * (-tau * qv * gsum);
    }
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
  const double eps = engine.config().approx.eps_epol;
  const double tau = engine.config().gb.tau();

  std::vector<Vec3> forces_tree(engine.num_atoms());
  const auto& leaves = ta.tree.leaf_ids();
  ws::Scheduler::parallel_for(
      0, static_cast<std::int64_t>(leaves.size()), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t li = lo; li < hi; ++li) {
          const Octree::Node& v = ta.tree.node(leaves[li]);
          std::vector<Vec3> local(v.size());
          ForcePass pass{ta,  ctx, born_tree, eps, tau, &v, &local, 0, 0,
                         0};
          pass.descend(0);
          // V leaves are disjoint, so this write is race-free.
          for (std::uint32_t i = 0; i < v.size(); ++i)
            forces_tree[v.begin + i] = local[i];
          atomic_add(counters.epol_exact, pass.exact);
          atomic_add(counters.epol_bins, pass.bins);
          atomic_add(counters.epol_visits, pass.visits);
        }
      });

  // Back to input order.
  std::vector<Vec3> forces(forces_tree.size());
  for (std::size_t pos = 0; pos < idx.size(); ++pos)
    forces[idx[pos]] = forces_tree[pos];
  return forces;
}

}  // namespace octgb::core
