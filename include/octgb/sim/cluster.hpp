#pragma once
/// \file cluster.hpp
/// Cluster simulation harness.
///
/// The evaluation container has one CPU core, so the paper's cluster runs
/// are reproduced by *measurement + model* (DESIGN.md §2): every rank's
/// kernels execute for real (sequentially, deterministic) and report exact
/// operation counts; communication volumes follow the same binomial-tree
/// collectives the mpp runtime implements; the MachineModel converts both
/// into time on the Table I hardware. Energies and Born radii produced
/// here are bit-comparable to a real hybrid run on the same segments.
///
/// Timing model
///   compute:  T_r = cycles(work_r) · cache_factor / (clock · p · eff(p))
///             eff(p) accounts for work-stealing overhead and the
///             cilk++/MPI interfacing cost the paper mentions;
///             cache_factor uses the *per-socket resident bytes*
///             (processes_per_socket × working set), which is what makes
///             the hybrid variant win for large molecules (§IV-B).
///   comm:     per collective, critical-path over the tree levels with
///             intra-node levels priced at (shm_ts, shm_tw) and inter-node
///             levels at (net_ts, net_tw); gathers price the root's
///             sequential receives. Matches the algorithms in mpp.hpp.

#include <vector>

#include "octgb/core/engine.hpp"
#include "octgb/mpp/mpp.hpp"
#include "octgb/perf/machine_model.hpp"

namespace octgb::sim {

/// One simulated cluster configuration (P ranks × p threads).
struct ClusterConfig {
  int ranks = 12;            ///< P
  int threads_per_rank = 1;  ///< p
  mpp::Topology topology{12};
  perf::MachineModel machine;
  /// Point-count-weighted leaf segmentation instead of the paper's
  /// even-by-count split (load-balancing ablation).
  bool weighted_division = false;
  /// Atom-based instead of node-based division of the energy phase
  /// (work-division ablation, §IV). The real drivers run neither
  /// ablation; bench_workdiv sets both here.
  bool atom_based_epol = false;
  /// Multiplicative overhead per extra worker thread (cilk++ scheduling;
  /// the paper's footnote 5 notes cilk-4.5.4 generated slower code than
  /// later runtimes).
  static constexpr double thread_overhead = 0.04;
  /// Fixed per-run cost of interfacing cilk++ with MPI (§V-C: "an
  /// additional overhead of interfacing cilk++ and MPI … prominent for
  /// smaller molecules"). Charged when P > 1 and p > 1.
  static constexpr double mpi_cilk_interface_seconds = 8e-4;
};

/// Result of one simulated run.
struct SimResult {
  double epol = 0.0;
  std::vector<double> born;  ///< input order
  std::vector<perf::WorkCounters> work_per_rank;
  perf::WorkCounters work_total;
  double compute_seconds = 0.0;  ///< max over ranks (modeled)
  double comm_seconds = 0.0;     ///< modeled collective time
  double total_seconds = 0.0;    ///< compute + comm
  std::size_t bytes_per_rank = 0;  ///< replicated-data footprint
  int total_cores = 0;             ///< P × p
};

/// Simulate the Fig. 4 algorithm for one configuration.
SimResult simulate_cluster(const core::GBEngine& engine,
                           const ClusterConfig& config);

/// Timing jitter for repeated-run experiments (Fig. 6 plots min and max of
/// 20 runs): OS noise perturbs each rank's compute multiplicatively and
/// the network perturbs each collective; the max over more ranks drifts
/// higher — the effect that separates OCT_MPI's max curve from the hybrid
/// one. Returns a perturbed total time for one simulated repeat.
double jittered_total_seconds(const SimResult& base, const ClusterConfig& cfg,
                              std::uint64_t repeat_seed);

// --- checkpoint/recovery model (DESIGN.md §2.5) ----------------------------

/// Failure environment for a modeled run of the elastic driver.
struct RecoveryConfig {
  /// Mean time between failures across the whole allocation.
  double mtbf_seconds = 3600.0;
  /// Cost of writing one superstep checkpoint to stable storage.
  double checkpoint_seconds = 0.05;
  /// Cost of restarting from the last checkpoint after a failure
  /// (re-division + reloading durable state).
  static constexpr double restart_seconds = 0.1;
  /// Checkpoint cadence; 0 selects the Young/Daly optimum.
  double checkpoint_interval_seconds = 0.0;
};

/// Expected cost breakdown of running `base` under `RecoveryConfig`.
struct RecoveryEstimate {
  double interval_seconds = 0.0;          ///< cadence actually used
  double optimal_interval_seconds = 0.0;  ///< Young/Daly √(2·δ·MTBF)
  double checkpoint_overhead_seconds = 0.0;  ///< (T/τ)·δ
  double expected_failures = 0.0;            ///< T_total / MTBF
  double rework_seconds = 0.0;  ///< failures · (τ/2 + restart)
  double expected_total_seconds = 0.0;
  /// (expected_total - fault-free) / fault-free.
  double overhead_fraction = 0.0;
};

/// Young's optimal checkpoint interval √(2·δ·MTBF) for checkpoint cost δ.
double optimal_checkpoint_interval(double checkpoint_seconds,
                                   double mtbf_seconds);

/// First-order Young/Daly estimate: expected runtime of `base` when
/// checkpointing every `interval` and losing on average half an interval
/// plus a restart per failure. bench_faults sweeps the cadence against
/// this curve.
RecoveryEstimate estimate_recovery(const SimResult& base,
                                   const RecoveryConfig& config);

/// Analytic collective costs (mirror mpp's implementations; exposed for
/// tests and the scalability benches).
struct CollectiveCosts {
  const perf::MachineModel& machine;
  const mpp::Topology& topology;
  int ranks;

  /// Critical-path seconds of a binomial reduce or bcast of `bytes`.
  double tree_collective(double bytes) const;
  /// allreduce = reduce + bcast.
  double allreduce(double bytes) const;
  /// gatherv of `total_bytes` to root + size/content bcast back.
  double allgatherv(double total_bytes) const;
};

}  // namespace octgb::sim
