#pragma once
/// \file data_distributed.hpp
/// The data-distribution variant the paper names as future work (§IV-A,
/// §VI: "Distributing data as well as computation is also an interesting
/// approach to explore").
///
/// Instead of replicating the molecule on every rank, rank i owns only
/// (a) the i-th segment of T_Q leaves with their quadrature payloads,
/// (b) the i-th segment of atoms, and (c) the octree *skeleton* (node
/// centroids/radii/ranges — linear in the node count, tiny next to the
/// payloads). Far-field interactions only need the skeleton plus node
/// aggregates; exact near-field interactions need the *ghost* atoms /
/// q-points of the leaves each rank's traversal actually reaches — the
/// local essential tree. This module measures those ghost sets exactly by
/// replaying the admissibility decisions of APPROX-INTEGRALS and
/// APPROX-EPOL, and prices the resulting exchange with the machine model.
///
/// The kernels and the segmentation are the replicated algorithm's, so a
/// deployment would compute the same energy; this module computes none.
/// It reports only what changes: the measured memory per rank and the
/// added ghost-exchange communication — the tradeoff
/// bench_data_distribution quantifies.

#include <cstdint>
#include <vector>

#include "octgb/core/engine.hpp"
#include "octgb/perf/machine_model.hpp"

namespace octgb::core {

/// Per-rank accounting of the data-distributed layout.
struct DataDistRank {
  std::size_t owned_atoms = 0;
  std::size_t owned_qpoints = 0;
  std::size_t ghost_atoms = 0;    ///< near-field atoms fetched from peers
  std::size_t owned_bytes = 0;    ///< payloads this rank stores
  std::size_t ghost_bytes = 0;    ///< payloads exchanged per evaluation
  std::size_t skeleton_bytes = 0; ///< replicated tree structure
};

/// The data-distributed layout over all ranks and its modeled exchange.
struct DataDistResult {
  std::vector<DataDistRank> ranks;
  /// Modeled extra communication for the ghost exchange (critical path).
  double ghost_exchange_seconds = 0.0;
  /// bytes/rank of the replicated baseline (one worker per rank), for
  /// comparison (replicated_rank_bytes).
  std::size_t replicated_bytes_per_rank = 0;

  std::size_t max_rank_bytes() const;
};

/// Account the data-distributed layout over `ranks` ranks, segmented as
/// simulate_cluster segments them.
DataDistResult run_data_distributed(const GBEngine& engine, int ranks,
                                    const perf::MachineModel& machine = {});

/// Measurement helper (exposed for tests): T_A leaf ids whose atoms the
/// Born-phase traversal of the given T_Q leaves touches *exactly* (the
/// near field — everything else is served by the skeleton).
std::vector<std::uint32_t> collect_near_ta_leaves(
    const AtomsTree& ta, const QPointsTree& tq,
    std::span<const std::uint32_t> q_leaf_ids, double eps_born,
    bool strict_criterion = false);

/// T_A leaf ids whose atoms the Epol traversal of the given V leaves
/// touches exactly.
std::vector<std::uint32_t> collect_near_epol_leaves(
    const AtomsTree& ta, std::span<const std::uint32_t> v_leaf_ids,
    double eps_epol);

}  // namespace octgb::core
