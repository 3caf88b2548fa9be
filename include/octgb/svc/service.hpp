#pragma once
/// \file service.hpp
/// ScoringService — the multi-tenant scoring front end (`octgb::svc`).
///
/// The service multiplexes many concurrent GB evaluations over one
/// machine, tying together every reuse mechanism the pipeline already
/// has (reusable `Preprocessed` trees, reused `EvalScratch` buffers, cached
/// interaction plans, Born-result reuse) behind an async job queue:
///
///   submit(JobRequest) ──admission──▶ per-tenant bounded queue
///        │ reject-with-reason                 │ fair-share pick
///        ▼                                    ▼
///   JobTicket (wait/result)  ◀──────── executor threads
///                                             │
///                              artifact cache (digest → warm session)
///                                             │
///                              CoreAllocator lease (disjoint subset)
///                                             │
///                              ws::Scheduler(width) · evaluate/score
///
/// Key invariants (DESIGN.md §2.8, operator handbook docs/SERVICE.md):
///
///   - Cache-hit evaluations are bit-identical to cache-miss evaluations
///     of the same digest: the digest pins everything that shapes trees,
///     plan, and arithmetic; the job width is a pure function of the
///     artifact, so the parallel reduction structure repeats exactly.
///   - Queues are bounded; overload surfaces as an immediate
///     RejectReason, never as unbounded growth.
///   - Concurrent jobs run on *disjoint* core subsets (SET-style
///     try_alloc placement), not an oversubscribed pool. Each job's
///     scheduler workers are pinned onto its leased block (best effort —
///     a refused affinity call leaves the worker unpinned), so a width-W
///     job occupies exactly cores [lease.first, lease.first + W) and all
///     its steals stay inside that block (the ws.steal.offblock
///     invariant; see DESIGN.md §2.11).
///   - Jobs touching one artifact serialize on its lock; tenant fairness
///     is start-time fair queuing weighted by TenantConfig::weight.
///
/// Shutdown: stop() (also run by the destructor) refuses new submissions,
/// lets the executors drain every queued job, then joins them.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "octgb/core/session.hpp"
#include "octgb/svc/admission.hpp"
#include "octgb/svc/cache.hpp"
#include "octgb/svc/digest.hpp"
#include "octgb/svc/placement.hpp"
#include "octgb/trace/metrics.hpp"

namespace octgb::svc {

/// What a job computes.
enum class JobKind : std::uint8_t {
  Evaluate,    ///< one Epol evaluation at the request's parameters
  PoseScreen,  ///< score a rigid pose stream (docking rescoring)
};

/// One tenant submission: the molecule, how to evaluate it, and (for
/// PoseScreen) the pose stream.
struct JobRequest {
  std::string tenant = "default";      ///< fair-share accounting identity
  mol::Molecule molecule;              ///< owned input (moved in)
  surface::SurfaceParams surface;      ///< surface sampling (digest-keyed)
  core::EngineConfig config;           ///< engine knobs (partition fields
                                       ///< digest-keyed, eps_epol/gb free)
  JobKind kind = JobKind::Evaluate;    ///< what to compute
  std::vector<geom::RigidTransform> poses;  ///< PoseScreen transforms
  std::size_t ligand_begin = 0;             ///< PoseScreen ligand split
  core::PoseMode pose_mode = core::PoseMode::CrossScreen;  ///< PoseScreen mode
};

/// What a finished job reports back.
struct JobResult {
  double epol = 0.0;  ///< Evaluate: Epol (kcal/mol); PoseScreen: base Epol
  std::vector<core::PoseScore> pose_scores;  ///< PoseScreen per-pose scores
  bool cache_hit = false;     ///< artifact was already warm
  int cores = 0;              ///< width of the core lease the job ran on
  double queue_seconds = 0.0; ///< submit → executor pickup
  double exec_seconds = 0.0;  ///< pickup → done (incl. preprocess on miss)
  double total_seconds = 0.0; ///< submit → done
  Digest digest;              ///< the artifact key the job resolved to
};

/// Handle to one submission: either rejected (reason()) or pending/done.
///
/// Copyable and cheap — copies share the same state. wait()/result() are
/// safe from any thread.
class JobTicket {
 public:
  /// Default ticket: invalid (reject() == ShuttingDown).
  JobTicket() = default;

  /// True when the job was admitted (a result will eventually arrive).
  bool accepted() const;
  /// The rejection reason (None when accepted).
  RejectReason reject() const;
  /// Block until the job finishes. No-op for rejected tickets.
  void wait() const;
  /// True once the result is available (or the ticket was rejected).
  bool done() const;
  /// wait(), then the result. Must not be called on a rejected ticket.
  const JobResult& result() const;

 private:
  friend class ScoringService;
  struct State;
  std::shared_ptr<State> st_;
};

/// Service-wide latency digest over completed jobs (milliseconds).
struct LatencySummary {
  std::size_t count = 0;  ///< completed jobs measured
  double p50_ms = 0.0;    ///< median submit→done latency
  double p95_ms = 0.0;    ///< 95th percentile
  double p99_ms = 0.0;    ///< 99th percentile
  double max_ms = 0.0;    ///< worst observed
};

/// ScoringService configuration.
struct ServiceConfig {
  int cores = 8;           ///< machine span the CoreAllocator manages
  int executors = 4;       ///< concurrent jobs (dispatcher threads)
  int max_job_cores = 4;   ///< per-job width ceiling
  std::size_t atoms_per_core = 2000;  ///< width sizing: 1 core per this many
  std::size_t cache_budget_bytes = std::size_t{512} << 20;  ///< artifact LRU
  AdmissionConfig admission;  ///< queue bounds and size ceiling
};

/// The multi-tenant scoring service. Construct, submit, wait on tickets;
/// stop() (or destruction) drains queued work and joins the executors.
class ScoringService {
 public:
  /// Start `config.executors` executor threads immediately.
  explicit ScoringService(ServiceConfig config);
  /// stop()s, draining queued jobs.
  ~ScoringService();

  ScoringService(const ScoringService&) = delete;             ///< non-copyable
  ScoringService& operator=(const ScoringService&) = delete;  ///< non-assignable

  /// Install a tenant's fair-share weight and queue bound (optional —
  /// unknown tenants get AdmissionConfig::default_tenant on first submit).
  void register_tenant(const std::string& tenant, const TenantConfig& cfg);

  /// Admit a job. Always returns a ticket: accepted() tells whether it
  /// entered the queue, reject() why it did not. Admission is synchronous
  /// and cheap (digest + bounds checks); execution is asynchronous.
  JobTicket submit(JobRequest req);

  /// Block until every queued and running job has finished.
  void drain();

  /// Refuse new submissions, drain the queues, join the executors.
  /// Idempotent.
  void stop();

  /// Lifetime counters (admission, cache, execution outcomes).
  perf::ServiceCounters counters() const;

  /// Percentile digest of completed-job submit→done latencies.
  LatencySummary latency() const;

  /// The artifact cache (for stats and tests).
  const ArtifactCache& cache() const { return cache_; }

  /// The core allocator (for stats and tests).
  const CoreAllocator& allocator() const { return alloc_; }

  /// Jobs completed for one tenant (starvation checks).
  std::uint64_t completed_for(const std::string& tenant) const;

  /// The configuration the service runs with.
  const ServiceConfig& config() const { return config_; }

  /// Export counters + cache + latency under `prefix` into `m` per the
  /// OBSERVABILITY.md `svc.*` schema.
  void export_metrics(trace::MetricsRegistry& m,
                      const std::string& prefix = "") const;

  /// The core width a molecule of `atoms` atoms executes with — a pure
  /// function of the artifact (bit-identity depends on this; see
  /// DESIGN.md §2.8).
  int width_for(std::size_t atoms) const;

  /// Steal-tier classification sampled per job (each job's final
  /// evaluation — the engine resets scheduler stats per compute) and
  /// accumulated for the service lifetime. `offblock` must stay 0: it
  /// counts steals whose victim sits outside the thief's leased core
  /// block.
  struct StealTierTotals {
    std::uint64_t local = 0;
    std::uint64_t socket = 0;
    std::uint64_t remote = 0;
    std::uint64_t offblock = 0;
    std::uint64_t pinned_workers = 0;  ///< max pinned workers of any job
  };
  StealTierTotals steal_tiers() const;

 private:
  struct Job {
    std::uint64_t id = 0;
    JobRequest req;
    Digest digest;
    std::shared_ptr<JobTicket::State> state;
    std::chrono::steady_clock::time_point submitted;
  };

  /// Executor-local scheduler pool key: (width, first leased core) —
  /// affinity is construction-only, so a lease landing on a different
  /// block needs a different scheduler.
  using SchedPool = std::map<std::pair<int, int>,
                             std::unique_ptr<ws::Scheduler>>;

  void executor_loop(int executor_id);
  void run_job(Job job, SchedPool& pool);
  void finish(Job& job, JobResult result);

  ServiceConfig config_;
  ArtifactCache cache_;
  CoreAllocator alloc_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< executors wait here for jobs
  std::condition_variable drain_cv_;  ///< drain() waits here
  FairQueues queues_;
  std::map<std::uint64_t, Job> pending_;  ///< admitted, not yet picked up
  std::uint64_t next_job_id_ = 1;
  int active_jobs_ = 0;
  bool stopping_ = false;
  perf::ServiceCounters counters_;
  StealTierTotals steal_tiers_;  ///< guarded by mu_
  std::map<std::string, std::uint64_t> completed_by_tenant_;
  std::vector<double> latencies_ms_;  ///< completed-job total latencies

  std::vector<std::thread> executors_;
};

}  // namespace octgb::svc
