#pragma once
/// \file hybrid.hpp
/// The paper's Fig. 4 driver: distributed / distributed-shared-memory
/// octree GB computation over the mpp runtime.
///
/// P ranks (threads under mpp), each optionally running a p-worker
/// work-stealing scheduler — p = 1 is OCT_MPI, p > 1 is OCT_MPI+CILK,
/// P = 1 with p > 1 degenerates to OCT_CILK. Steps:
///   1. octrees are built once (see note below);
///   2. rank i: APPROX-INTEGRALS for the i-th segment of T_Q leaves;
///   3. Allreduce of node/atom partial integrals;
///   4. rank i: PUSH-INTEGRALS-TO-ATOMS for the i-th atom segment;
///   5. Allgatherv of Born radii;
///   6. rank i: partial Epol for the i-th segment of T_A leaves;
///   7. Allreduce of the partial energies.
///
/// Note on step 1: the paper has every process build identical octrees
/// from replicated data. Ranks here share one address space, so the
/// harness builds the (deterministic) trees once and hands every rank a
/// read-only view; the *replicated* footprint each real process would hold
/// is still accounted in HybridResult::bytes_per_rank, which is what the
/// §V-B memory comparison uses.

#include <vector>

#include "octgb/core/engine.hpp"
#include "octgb/mpp/mpp.hpp"

namespace octgb::core {

class CheckpointStore;  // core/checkpoint.hpp

/// Hybrid run configuration.
struct HybridConfig {
  int ranks = 2;             ///< P
  int threads_per_rank = 1;  ///< p
  mpp::Topology topology;    ///< rank → node placement
  /// The real drivers run only the paper's division: leaves split evenly
  /// by count, energy divided by T_A leaf. The §IV ablations (weighted
  /// split, atom-based energy) live in sim::ClusterConfig. Kept as
  /// constants because perfbench's traced hybrid mirror reads them.
  static constexpr bool weighted_division = false;
  static constexpr bool atom_based_epol = false;
};

/// Outcome of a hybrid run, with per-rank measurements for the
/// machine-model time reconstruction.
struct HybridResult {
  double epol = 0.0;
  std::vector<double> born;  ///< input order
  std::vector<perf::WorkCounters> work_per_rank;
  std::vector<perf::CommCounters> comm_per_rank;
  perf::WorkCounters work_total;
  /// Bytes a real (data-replicating) process would hold.
  std::size_t bytes_per_rank = 0;
  double wall_seconds = 0.0;
};

/// Run the Fig. 4 algorithm on a prebuilt engine.
HybridResult run_hybrid(const GBEngine& engine, const HybridConfig& config);

// --- per-rank entry points (transport-agnostic) ----------------------------
//
// The rank bodies of run_hybrid / run_hybrid_elastic, factored out so they
// run over *any* mpp transport: the in-thread Runtime (the wrappers below)
// or a real rank process under tools/octgb_launch, where each process
// calls one of these with its ProcessRuntime Comm. The static work
// division is recomputed inside from (engine, config) — deterministic, so
// every rank derives identical segments, exactly like the paper's
// replicated-data processes.

/// What one rank knows at the end of a run.
struct RankOutcome {
  double epol = 0.0;               ///< the globally reduced energy
  std::vector<double> born_tree;   ///< full Born array, tree order
  perf::WorkCounters work;
  // Elastic-only recovery accounting (zero for the plain hybrid body).
  std::uint64_t tasks_computed = 0;
  std::uint64_t tasks_recomputed = 0;
  std::uint64_t control_retries = 0;
};

/// One rank of the plain Fig. 4 pipeline. `comm.size()` must equal
/// `config.ranks`.
RankOutcome run_hybrid_rank(const GBEngine& engine,
                            const HybridConfig& config, mpp::Comm& comm);

// --- elastic (self-healing) driver ----------------------------------------
//
// run_hybrid_elastic executes the same three supersteps (integrals → Born
// radii → energy) but survives injected message faults and rank deaths
// (DESIGN.md §2.5). The key to *bit-identical* recovery is a fixed task
// grid: each phase is always divided into the original P segments no
// matter how many ranks remain. Tasks are deterministic functions of the
// phase inputs; every finished task is checkpointed into a CheckpointStore
// (simulated stable storage); and each rank combines the P task results
// locally in ascending task order — so the floating-point reduction order,
// and therefore every bit of Epol, is independent of which ranks computed
// which tasks or how often work was re-planned.
//
// Control flow per phase: survivors partition the *missing* tasks over the
// current alive set (re-running the work division over the reduced rank
// set), checkpoint results, then synchronize through opportunistic
// done/release messages to the coordinator (lowest alive rank) with
// deadlines and retry — a lost, corrupt, or dead-peer control message
// degrades to re-checking the store, never to a hang.

/// Configuration for the elastic driver.
struct ElasticConfig {
  /// Base parameters; `hybrid.ranks` is also the size of the fixed task
  /// grid every phase is divided into.
  HybridConfig hybrid;
  /// Seeded fault schedule (empty = run fault-free).
  mpp::faults::FaultPlan fault_plan;
  /// Per-message CRCs are always attached, so injected corruption is
  /// detected.
  static constexpr bool checksum = true;
  /// Deadline for one done/release control exchange; expiry falls back to
  /// polling the checkpoint store.
  static constexpr double control_deadline_ms = 20.0;
  /// Re-plan attempts per phase before declaring the run wedged.
  static constexpr int max_attempts = 10000;
  /// External stable storage. When set, run_hybrid_elastic checkpoints
  /// there (e.g. a file-backed store shared by real rank processes)
  /// instead of a run-local in-memory store. The store is NOT cleared:
  /// re-running over a partially full store resumes from it.
  CheckpointStore* store = nullptr;
};

/// Outcome of an elastic run, with recovery accounting.
struct ElasticResult {
  double epol = 0.0;
  std::vector<double> born;  ///< input order
  std::vector<perf::WorkCounters> work_per_rank;
  std::vector<perf::CommCounters> comm_per_rank;
  /// Ranks that finished all three phases (== ranks - dead_ranks.size()).
  int ranks_completed = 0;
  /// Ranks killed by the fault plan.
  std::vector<int> dead_ranks;
  /// Task executions across all phases/ranks; 3 * ranks when nothing had
  /// to be recomputed.
  std::uint64_t tasks_computed = 0;
  /// Task executions beyond the fault-free minimum (recovery work).
  std::uint64_t tasks_recomputed = 0;
  /// Checkpoint-store writes (the checkpoint cadence bench_faults sweeps).
  std::uint64_t checkpoint_puts = 0;
  /// Control receives that needed a retry/backoff round.
  std::uint64_t control_retries = 0;
  /// Injected-fault fire counts for the run.
  mpp::faults::FaultStats faults;
  double wall_seconds = 0.0;
};

/// Run the fault-tolerant Fig. 4 pipeline. With an empty fault plan this
/// computes the same Epol as any faulty run of the same configuration —
/// the bit-identical-recovery contract faults_test enforces.
ElasticResult run_hybrid_elastic(const GBEngine& engine,
                                 const ElasticConfig& config);

/// One rank of the elastic pipeline, checkpointing into `store` (which
/// every rank must share — the in-thread wrapper passes one object, real
/// rank processes pass file-backed stores over the same directory).
/// `comm.size()` must equal `config.hybrid.ranks`. Throws
/// mpp::RankKilledError (in-thread) when a fault-plan kill fires.
RankOutcome run_elastic_rank(const GBEngine& engine,
                             const ElasticConfig& config, mpp::Comm& comm,
                             CheckpointStore& store);

}  // namespace octgb::core
