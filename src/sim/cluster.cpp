#include "octgb/sim/cluster.hpp"

#include <algorithm>
#include <cmath>

#include "octgb/trace/trace.hpp"
#include "octgb/util/check.hpp"
#include "octgb/util/rng.hpp"

namespace octgb::sim {

using core::GBEngine;

double CollectiveCosts::tree_collective(double bytes) const {
  if (ranks <= 1) return 0.0;
  const int levels =
      static_cast<int>(std::ceil(std::log2(static_cast<double>(ranks))));
  const int intra_levels = static_cast<int>(std::ceil(std::log2(
      static_cast<double>(std::min(ranks, topology.ranks_per_node)))));
  const int inter_levels = std::max(0, levels - intra_levels);
  return intra_levels * (machine.shm_ts + machine.shm_tw * bytes) +
         inter_levels * (machine.net_ts + machine.net_tw * bytes);
}

double CollectiveCosts::allreduce(double bytes) const {
  return 2.0 * tree_collective(bytes);
}

double CollectiveCosts::allgatherv(double total_bytes) const {
  if (ranks <= 1) return 0.0;
  // Root receives P−1 contributions (serialized), average message is
  // total/P bytes; classify by the sender's node.
  const double per_msg = total_bytes / ranks;
  double recv = 0.0;
  for (int r = 1; r < ranks; ++r) {
    if (topology.same_node(0, r))
      recv += machine.shm_ts + machine.shm_tw * per_msg;
    else
      recv += machine.net_ts + machine.net_tw * per_msg;
  }
  return recv + tree_collective(total_bytes);
}

namespace {

/// Virtual-track label for a simulated rank ("rank3 (sim)").
std::string sim_rank_name(int r) {
  return "rank" + std::to_string(r) + " (sim)";
}

}  // namespace

SimResult simulate_cluster(const GBEngine& engine,
                           const ClusterConfig& config) {
  OCTGB_CHECK_MSG(config.ranks >= 1 && config.threads_per_rank >= 1,
                  "bad cluster shape");
  const int P = config.ranks;
  const int p = config.threads_per_rank;
  const auto n_nodes = engine.num_ta_nodes();
  const auto n_atoms = engine.num_atoms();

  SimResult result;
  result.total_cores = P * p;
  result.work_per_rank.resize(P);

  // Segments: run_hybrid's division.
  const core::Division div =
      core::make_division(engine, P, config.weighted_division);

  // Ranks execute sequentially; sums into shared arrays are equivalent to
  // the Allreduce (addition is commutative; merge order is deterministic).
  std::vector<double> node_s(n_nodes, 0.0);
  std::vector<double> atom_s(n_atoms, 0.0);
  std::vector<double> born_tree(n_atoms, 0.0);

  // Each simulated rank's spans land on its own virtual Perfetto track
  // (one OS thread plays every rank in turn — see trace.hpp).
  for (int r = 0; r < P; ++r) {
    trace::VirtualThreadScope rank_track(r, sim_rank_name(r));
    engine.phase_integrals(div.q_segments[r], node_s, atom_s,
                           result.work_per_rank[r]);
  }
  for (int r = 0; r < P; ++r) {
    trace::VirtualThreadScope rank_track(r, sim_rank_name(r));
    engine.phase_push(div.atom_segments[r], node_s, atom_s, born_tree,
                      result.work_per_rank[r]);
  }
  const core::EpolContext ctx = engine.build_epol_context(born_tree);
  double epol = 0.0;
  for (int r = 0; r < P; ++r) {
    trace::VirtualThreadScope rank_track(r, sim_rank_name(r));
    epol += config.atom_based_epol
                ? engine.phase_epol_atom_based(ctx, born_tree,
                                               div.atom_segments[r],
                                               result.work_per_rank[r])
                : engine.phase_epol(ctx, born_tree, div.a_leaf_segments[r],
                                    result.work_per_rank[r]);
  }
  result.epol = epol;
  result.born = engine.born_to_input_order(born_tree);
  for (const auto& w : result.work_per_rank) result.work_total += w;

  // ---- modeled time -----------------------------------------------------
  const perf::MachineModel& m = config.machine;
  const bool approx = engine.config().approx.approx_math;

  result.bytes_per_rank = core::replicated_rank_bytes(engine, p);

  // Cache pressure: resident bytes per socket = processes on the socket ×
  // the slice of data a process actually streams (its working set). Each
  // rank touches its leaf segment's share of the tree data plus the
  // shared accumulation arrays.
  const int ranks_per_node = std::min(P, config.topology.ranks_per_node);
  const int sockets = m.sockets_per_node;
  const int procs_per_socket =
      std::max(1, (ranks_per_node + sockets - 1) / sockets);
  const double ws_per_rank =
      static_cast<double>(engine.footprint_bytes()) / P +
      static_cast<double>((n_nodes + 2 * n_atoms) * sizeof(double));
  const double socket_bytes = ws_per_rank * procs_per_socket;
  const double cache_factor = m.cache_factor(socket_bytes, 1);

  // Work-stealing / interfacing overhead grows with p.
  const double thread_eff = 1.0 + ClusterConfig::thread_overhead * (p - 1);

  double max_rank_seconds = 0.0;
  for (const auto& w : result.work_per_rank) {
    // compute_seconds already includes the cache factor via its argument;
    // here we pass factor 1 and apply our socket-level factor explicitly.
    const double cycles_seconds = m.compute_seconds(w, 0.0, 1, approx);
    const double t = cycles_seconds * cache_factor * thread_eff / p;
    max_rank_seconds = std::max(max_rank_seconds, t);
  }
  result.compute_seconds = max_rank_seconds;

  // Collectives (Fig. 4 steps 3, 5, 7).
  CollectiveCosts costs{m, config.topology, P};
  const double node_bytes = static_cast<double>(n_nodes) * sizeof(double);
  const double atom_bytes = static_cast<double>(n_atoms) * sizeof(double);
  result.comm_seconds = costs.allreduce(node_bytes) +
                        costs.allreduce(atom_bytes) +
                        costs.allgatherv(atom_bytes) +
                        costs.allreduce(sizeof(double));
  if (P > 1 && p > 1)
    result.comm_seconds += config.mpi_cilk_interface_seconds;
  result.total_seconds = result.compute_seconds + result.comm_seconds;
  return result;
}

double jittered_total_seconds(const SimResult& base, const ClusterConfig& cfg,
                              std::uint64_t repeat_seed) {
  util::Xoshiro256 rng(repeat_seed ^ 0x9e3779b97f4a7c15ULL);
  // Per-rank multiplicative OS noise; the slowest rank gates the run, so
  // the expected max grows with the number of ranks (lognormal-ish tail).
  double worst = 0.0;
  for (int r = 0; r < cfg.ranks; ++r) {
    const double noise = std::exp(0.03 * rng.normal() +
                                  0.02 * rng.uniform());  // ≥ ~0.94, tailed
    worst = std::max(worst, noise);
  }
  // Network jitter on the collectives.
  const double comm_noise = 1.0 + 0.15 * rng.uniform();
  return base.compute_seconds * worst + base.comm_seconds * comm_noise;
}

double optimal_checkpoint_interval(double checkpoint_seconds,
                                   double mtbf_seconds) {
  OCTGB_CHECK_MSG(checkpoint_seconds > 0.0 && mtbf_seconds > 0.0,
                  "checkpoint cost and MTBF must be positive");
  return std::sqrt(2.0 * checkpoint_seconds * mtbf_seconds);
}

RecoveryEstimate estimate_recovery(const SimResult& base,
                                   const RecoveryConfig& config) {
  OCTGB_CHECK_MSG(config.mtbf_seconds > 0.0, "MTBF must be positive");
  OCTGB_CHECK_MSG(config.checkpoint_seconds >= 0.0 &&
                      config.restart_seconds >= 0.0,
                  "checkpoint/restart costs must be non-negative");
  RecoveryEstimate est;
  est.optimal_interval_seconds =
      config.checkpoint_seconds > 0.0
          ? optimal_checkpoint_interval(config.checkpoint_seconds,
                                        config.mtbf_seconds)
          : 0.0;
  est.interval_seconds = config.checkpoint_interval_seconds > 0.0
                             ? config.checkpoint_interval_seconds
                             : est.optimal_interval_seconds;
  const double T = base.total_seconds;
  // Checkpoint tax: one checkpoint of cost δ every τ seconds of progress.
  est.checkpoint_overhead_seconds =
      est.interval_seconds > 0.0
          ? (T / est.interval_seconds) * config.checkpoint_seconds
          : 0.0;
  // First-order failure model: failures arrive at rate 1/MTBF over the
  // *stretched* runtime; each loses half an interval of progress plus the
  // restart. Solved to first order (failures computed against the
  // fault-free-plus-checkpoint time, as in Young's original analysis).
  const double stretched = T + est.checkpoint_overhead_seconds;
  est.expected_failures = stretched / config.mtbf_seconds;
  est.rework_seconds =
      est.expected_failures *
      (0.5 * est.interval_seconds + config.restart_seconds);
  est.expected_total_seconds = stretched + est.rework_seconds;
  est.overhead_fraction =
      T > 0.0 ? (est.expected_total_seconds - T) / T : 0.0;
  return est;
}

}  // namespace octgb::sim
