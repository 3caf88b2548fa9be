#include "octgb/core/data_distributed.hpp"

#include <algorithm>
#include <cstdint>

#include "born_walk.hpp"
#include "epol_walk.hpp"
#include "octgb/core/gb_params.hpp"
#include "octgb/util/check.hpp"

namespace octgb::core {

namespace {

using octree::Octree;

/// Collect sink of both walks: marks T_A leaves in a byte plane. In the
/// Born walk, near() marks its owner A; each T_A node is opened by one
/// task, so every mark has one writer even when the walk forks. In the
/// Epol walk, near() marks the leaf U the walk reached.
struct CollectSink {
  std::uint8_t* touched;

  struct Owner {
    std::uint8_t* mark;
    void far(std::uint32_t) {}
    void near(std::uint32_t) { *mark = 1; }
    bool close() const { return true; }
  };
  Owner open(std::uint32_t a_id) const { return {touched + a_id}; }

  double near(std::uint32_t u_id, std::uint32_t, const Octree::Node&,
              detail::EpolCounts&) const {
    touched[u_id] = 1;
    return 0.0;
  }
  double far(std::uint32_t, const geom::Vec3&, double,
             detail::EpolCounts&) const {
    return 0.0;
  }
};

std::vector<std::uint32_t> touched_to_ids(
    const std::vector<std::uint8_t>& touched) {
  std::vector<std::uint32_t> ids;
  for (std::uint32_t id = 0; id < touched.size(); ++id)
    if (touched[id]) ids.push_back(id);
  return ids;
}

/// Payload bytes per atom a peer must ship: position + charge + radius.
constexpr std::size_t kAtomPayloadBytes = sizeof(geom::Vec3) + 2 * sizeof(double);
/// Payload bytes per quadrature point: position + weighted normal + weight.
constexpr std::size_t kQPointPayloadBytes =
    2 * sizeof(geom::Vec3) + sizeof(double);
/// Skeleton bytes per octree node (centroid, radius, ranges, links).
constexpr std::size_t kSkeletonNodeBytes = sizeof(Octree::Node);

}  // namespace

std::size_t DataDistResult::max_rank_bytes() const {
  std::size_t best = 0;
  for (const auto& r : ranks)
    best = std::max(best, r.owned_bytes + r.ghost_bytes + r.skeleton_bytes);
  return best;
}

std::vector<std::uint32_t> collect_near_ta_leaves(
    const AtomsTree& ta, const QPointsTree& tq,
    std::span<const std::uint32_t> q_leaf_ids, double eps_born,
    bool strict_criterion) {
  std::vector<std::uint8_t> touched(ta.tree.nodes().size(), 0);
  CollectSink sink{touched.data()};
  perf::WorkCounters work;
  detail::BornWalk<CollectSink>(ta, tq,
                                born_threshold(eps_born, strict_criterion),
                                sink, true)
      .run(q_leaf_ids, work);
  return touched_to_ids(touched);
}

std::vector<std::uint32_t> collect_near_epol_leaves(
    const AtomsTree& ta, std::span<const std::uint32_t> v_leaf_ids,
    double eps_epol) {
  const double k = epol_threshold(eps_epol);
  std::vector<std::uint8_t> touched(ta.tree.nodes().size(), 0);
  const CollectSink sink{touched.data()};
  detail::EpolCounts counts;
  for (std::uint32_t v_id : v_leaf_ids) {
    const Octree::Node& v = ta.tree.node(v_id);
    detail::epol_walk(ta.tree, v.centroid, v.radius, k, sink, counts);
  }
  return touched_to_ids(touched);
}

DataDistResult run_data_distributed(const GBEngine& engine, int ranks,
                                    const perf::MachineModel& machine) {
  OCTGB_CHECK_MSG(ranks >= 1, "need at least one rank");
  const auto& ta = engine.atoms_tree();
  const auto& tq = engine.qpoints_tree();
  const auto& q_leaves = engine.q_leaves();
  const auto& a_leaves = engine.a_leaves();
  const auto n_atoms = engine.num_atoms();

  DataDistResult result;
  result.ranks.resize(ranks);

  // Physics: identical to the replicated algorithm — run the standard
  // phases with the same segmentation (a real deployment would run them
  // over the exchanged ghosts; the kernels and numbers are the same).
  std::vector<double> node_s(engine.num_ta_nodes(), 0.0);
  std::vector<double> atom_s(n_atoms, 0.0);
  std::vector<double> born_tree(n_atoms, 0.0);
  perf::WorkCounters work;
  for (int r = 0; r < ranks; ++r)
    engine.phase_integrals(even_segment(q_leaves.size(), ranks, r), node_s,
                           atom_s, work);
  engine.phase_push({0, static_cast<std::uint32_t>(n_atoms)}, node_s, atom_s,
                    born_tree, work);
  const EpolContext ctx = engine.build_epol_context(born_tree);
  double epol = 0.0;
  for (int r = 0; r < ranks; ++r)
    epol += engine.phase_epol(ctx, born_tree,
                              even_segment(a_leaves.size(), ranks, r), work);
  result.epol = epol;

  // Accounting: owned payloads + measured ghost sets per rank.
  const std::size_t skeleton =
      (ta.tree.nodes().size() + tq.tree.nodes().size()) * kSkeletonNodeBytes;
  double worst_ghost_bytes = 0.0;
  for (int r = 0; r < ranks; ++r) {
    DataDistRank& rank = result.ranks[r];
    const Segment qs = even_segment(q_leaves.size(), ranks, r);
    const Segment as = even_segment(a_leaves.size(), ranks, r);
    const Segment atoms = even_segment(n_atoms, ranks, r);

    rank.owned_atoms = atoms.size();
    for (std::uint32_t li = qs.begin; li < qs.end; ++li)
      rank.owned_qpoints += tq.tree.node(q_leaves[li]).size();
    rank.owned_bytes = rank.owned_atoms * kAtomPayloadBytes +
                       rank.owned_qpoints * kQPointPayloadBytes;
    rank.skeleton_bytes = skeleton;

    // Born-phase ghosts: atoms of T_A leaves the rank's Q-leaf traversal
    // reaches exactly, minus the atoms it already owns.
    const auto near_born = collect_near_ta_leaves(
        ta, tq,
        std::span<const std::uint32_t>(q_leaves).subspan(qs.begin, qs.size()),
        engine.config().approx.eps_born,
        engine.config().approx.strict_born_criterion);
    // Epol-phase ghosts: atoms (positions + charges + Born radii) of the
    // leaves its V-leaf traversal reaches.
    const auto near_epol = collect_near_epol_leaves(
        ta,
        std::span<const std::uint32_t>(a_leaves).subspan(as.begin, as.size()),
        engine.config().approx.eps_epol);

    std::vector<bool> ghost_atom(n_atoms, false);
    auto mark = [&](const std::vector<std::uint32_t>& leaves_hit) {
      for (std::uint32_t id : leaves_hit) {
        const auto& node = ta.tree.node(id);
        for (std::uint32_t i = node.begin; i < node.end; ++i) {
          if (i < atoms.begin || i >= atoms.end) ghost_atom[i] = true;
        }
      }
    };
    mark(near_born);
    mark(near_epol);
    for (std::size_t i = 0; i < n_atoms; ++i)
      if (ghost_atom[i]) ++rank.ghost_atoms;
    rank.ghost_bytes = rank.ghost_atoms * (kAtomPayloadBytes +
                                           sizeof(double) /* Born radius */);
    worst_ghost_bytes =
        std::max(worst_ghost_bytes, static_cast<double>(rank.ghost_bytes));
  }

  // Ghost exchange: point-to-point pulls, priced as one inter-node
  // transfer of the worst rank's ghost volume (critical path) plus a
  // latency per peer.
  result.ghost_exchange_seconds =
      worst_ghost_bytes * machine.net_tw +
      static_cast<double>(std::max(0, ranks - 1)) * machine.net_ts;

  result.replicated_bytes_per_rank =
      engine.footprint_bytes() +
      (engine.num_ta_nodes() + 2 * n_atoms) * sizeof(double);
  return result;
}

}  // namespace octgb::core
