#include "octgb/svc/service.hpp"

#include <algorithm>
#include <cmath>

#include "octgb/trace/trace.hpp"
#include "octgb/util/check.hpp"

namespace octgb::svc {

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

/// Shared completion state between a ticket and the service.
struct JobTicket::State {
  mutable std::mutex mu;
  mutable std::condition_variable cv;
  bool finished = false;
  RejectReason rejected = RejectReason::None;
  JobResult result;
};

bool JobTicket::accepted() const {
  return st_ != nullptr && reject() == RejectReason::None;
}

RejectReason JobTicket::reject() const {
  if (!st_) return RejectReason::ShuttingDown;
  std::lock_guard lk(st_->mu);
  return st_->rejected;
}

void JobTicket::wait() const {
  if (!st_) return;
  std::unique_lock lk(st_->mu);
  st_->cv.wait(lk, [&] { return st_->finished; });
}

bool JobTicket::done() const {
  if (!st_) return true;
  std::lock_guard lk(st_->mu);
  return st_->finished;
}

const JobResult& JobTicket::result() const {
  OCTGB_CHECK_MSG(st_ != nullptr, "svc: result() on an empty ticket");
  wait();
  std::lock_guard lk(st_->mu);
  OCTGB_CHECK_MSG(st_->rejected == RejectReason::None,
                  "svc: result() on a rejected ticket ("
                      << to_string(st_->rejected) << ")");
  return st_->result;
}

ScoringService::ScoringService(ServiceConfig config)
    : config_(config),
      cache_(config.cache_budget_bytes),
      alloc_(std::max(config.cores, 1)) {
  OCTGB_CHECK_MSG(config_.executors >= 1, "svc: need at least one executor");
  config_.max_job_cores =
      std::clamp(config_.max_job_cores, 1, std::max(config_.cores, 1));
  if (config_.atoms_per_core == 0) config_.atoms_per_core = 1;
  executors_.reserve(static_cast<std::size_t>(config_.executors));
  for (int e = 0; e < config_.executors; ++e)
    executors_.emplace_back([this, e] { executor_loop(e); });
}

ScoringService::~ScoringService() { stop(); }

void ScoringService::register_tenant(const std::string& tenant,
                                     const TenantConfig& cfg) {
  std::lock_guard lk(mu_);
  queues_.configure(tenant, cfg);
}

int ScoringService::width_for(std::size_t atoms) const {
  const std::size_t w = 1 + atoms / config_.atoms_per_core;
  return static_cast<int>(
      std::min<std::size_t>(w, static_cast<std::size_t>(config_.max_job_cores)));
}

JobTicket ScoringService::submit(JobRequest req) {
  OCTGB_SPAN("svc.submit");
  JobTicket ticket;
  ticket.st_ = std::make_shared<JobTicket::State>();

  auto reject_with = [&](RejectReason r) {
    {
      std::lock_guard slk(ticket.st_->mu);
      ticket.st_->rejected = r;
      ticket.st_->finished = true;
    }
    trace::instant("svc.reject");
    ticket.st_->cv.notify_all();
    return ticket;
  };

  // The digest is computed outside the service lock: it is O(atoms) and
  // must not serialize concurrent submitters.
  const Digest digest =
      digest_job_inputs(req.molecule, req.surface, req.config);

  std::lock_guard lk(mu_);
  ++counters_.submitted;
  if (stopping_) {
    ++counters_.rejected_shutting_down;
    return reject_with(RejectReason::ShuttingDown);
  }
  if (req.molecule.size() > config_.admission.max_atoms ||
      req.molecule.empty()) {
    ++counters_.rejected_too_large;
    return reject_with(RejectReason::TooLarge);
  }
  const std::uint64_t id = next_job_id_++;
  const RejectReason r = queues_.push(req.tenant, id, config_.admission);
  if (r != RejectReason::None) {
    if (r == RejectReason::QueueFull) ++counters_.rejected_queue_full;
    if (r == RejectReason::TenantQueueFull)
      ++counters_.rejected_tenant_queue_full;
    return reject_with(r);
  }

  Job job;
  job.id = id;
  job.req = std::move(req);
  job.digest = digest;
  job.state = ticket.st_;
  job.submitted = std::chrono::steady_clock::now();
  pending_.emplace(id, std::move(job));
  work_cv_.notify_one();
  return ticket;
}

void ScoringService::executor_loop(int executor_id) {
  (void)executor_id;
  // Executor-local scheduler pool: one ws::Scheduler per (width, core
  // block) this executor has run, so repeat placements reuse the spawned
  // (and pinned) worker threads.
  SchedPool pool;
  for (;;) {
    Job job;
    {
      std::unique_lock lk(mu_);
      std::uint64_t id = 0;
      std::string tenant;
      work_cv_.wait(lk, [&] {
        return stopping_ || queues_.total_queued() > 0;
      });
      if (!queues_.pop(&id, &tenant)) {
        if (stopping_) return;
        continue;  // spurious wakeup with an empty queue
      }
      auto it = pending_.find(id);
      OCTGB_CHECK_MSG(it != pending_.end(), "svc: queued job has no record");
      job = std::move(it->second);
      pending_.erase(it);
      ++active_jobs_;
    }
    run_job(std::move(job), pool);
  }
}

void ScoringService::run_job(Job job, SchedPool& pool) {
  OCTGB_SPAN("svc.job");
  const auto picked_up = std::chrono::steady_clock::now();
  JobResult result;
  result.digest = job.digest;
  result.queue_seconds = seconds_between(job.submitted, picked_up);

  bool hit = false;
  ArtifactPtr artifact;
  try {
    const JobRequest& req = job.req;
    artifact = cache_.acquire(
        job.digest,
        [&]() -> std::unique_ptr<core::ScoringSession> {
          // Cold path: surface sampling + both octrees + session state.
          const auto surf = surface::build_surface(req.molecule, req.surface);
          return std::make_unique<core::ScoringSession>(
              req.molecule, surf, req.config, req.surface);
        },
        &hit);
    result.cache_hit = hit;

    const int width =
        width_for(artifact->session->molecule().size());
    result.cores = width;

    // Serialize on the artifact *before* taking cores: a job must never
    // hold a core lease while blocked on another job's artifact lock
    // (lease-holders always run to completion, so the allocator's wait
    // queue always drains — see DESIGN.md §2.8).
    std::lock_guard artifact_lk(artifact->exec_mu);
    const CoreLease lease = alloc_.alloc(width);
    try {
      // Pinned schedulers are placement-specific: worker→core affinity is
      // fixed at construction, so the pool key carries the lease's first
      // core.
      auto& sched = pool[{width, lease.first}];
      if (!sched) {
        ws::SchedulerOptions opts;
        opts.pin = true;
        opts.pin_first = lease.first;
        sched = std::make_unique<ws::Scheduler>(width, opts);
      }

      core::ScoringSession& session = *artifact->session;
      session.engine().gb() = req.config.gb;
      {
        OCTGB_SPAN("svc.exec");
        if (req.kind == JobKind::Evaluate) {
          result.epol =
              session.evaluate_at(req.config.approx, sched.get()).epol;
        } else {
          session.engine().approx() = req.config.approx;
          result.pose_scores = session.score_poses(
              req.poses, req.ligand_begin, req.pose_mode, sched.get());
          if (req.pose_mode == core::PoseMode::Full) session.reset_to_base();
        }
      }
      // Sample the steal-tier classification of the job's final evaluation
      // (the engine resets scheduler stats per compute) before handing the
      // cores back; offblock must stay zero under pinning.
      const ws::SchedulerStats st = sched->stats();
      std::lock_guard lk(mu_);
      steal_tiers_.local += st.local_steals;
      steal_tiers_.socket += st.socket_steals;
      steal_tiers_.remote += st.remote_steals;
      steal_tiers_.offblock += st.offblock_steals;
      steal_tiers_.pinned_workers =
          std::max(steal_tiers_.pinned_workers, st.pinned_workers);
    } catch (...) {
      // A failed job must not strand its cores: later jobs would wait in
      // alloc() for them forever.
      alloc_.release(lease);
      throw;
    }
    alloc_.release(lease);
  } catch (...) {
    // Surface the failure on the ticket, keep the service up.
    {
      std::lock_guard slk(job.state->mu);
      job.state->rejected = RejectReason::Failed;
      job.state->finished = true;
    }
    job.state->cv.notify_all();
    std::lock_guard lk(mu_);
    --active_jobs_;
    drain_cv_.notify_all();
    return;
  }

  const auto done = std::chrono::steady_clock::now();
  result.exec_seconds = seconds_between(picked_up, done);
  result.total_seconds = seconds_between(job.submitted, done);
  finish(job, std::move(result));
}

void ScoringService::finish(Job& job, JobResult result) {
  {
    std::lock_guard lk(mu_);
    ++counters_.completed;
    if (job.req.kind == JobKind::Evaluate) {
      ++counters_.evaluations;
    } else {
      counters_.poses_scored += result.pose_scores.size();
    }
    if (result.cache_hit) {
      ++counters_.cache_hits;
    } else {
      ++counters_.cache_misses;
      ++counters_.preprocessed;
    }
    ++completed_by_tenant_[job.req.tenant];
    latencies_ms_.push_back(result.total_seconds * 1e3);
    // Fair share charges actual service time, so one tenant's huge
    // molecules cost it proportionally more than another's small ones.
    queues_.charge(job.req.tenant, result.exec_seconds);
    --active_jobs_;
  }
  drain_cv_.notify_all();
  {
    std::lock_guard slk(job.state->mu);
    job.state->result = std::move(result);
    job.state->finished = true;
  }
  job.state->cv.notify_all();
}

void ScoringService::drain() {
  std::unique_lock lk(mu_);
  drain_cv_.wait(lk, [&] {
    return queues_.total_queued() == 0 && active_jobs_ == 0;
  });
}

void ScoringService::stop() {
  {
    std::lock_guard lk(mu_);
    if (stopping_ && executors_.empty()) return;
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : executors_)
    if (t.joinable()) t.join();
  executors_.clear();
}

perf::ServiceCounters ScoringService::counters() const {
  perf::ServiceCounters c;
  {
    std::lock_guard lk(mu_);
    c = counters_;
  }
  const CacheStats cs = cache_.stats();
  // The cache sees one acquire per executed job; evictions are cache-side
  // only, so splice them in here where the two views join.
  c.cache_evictions = cs.evictions;
  return c;
}

LatencySummary ScoringService::latency() const {
  std::vector<double> sorted;
  {
    std::lock_guard lk(mu_);
    sorted = latencies_ms_;
  }
  std::sort(sorted.begin(), sorted.end());
  LatencySummary s;
  s.count = sorted.size();
  if (!sorted.empty()) {
    s.p50_ms = percentile(sorted, 0.50);
    s.p95_ms = percentile(sorted, 0.95);
    s.p99_ms = percentile(sorted, 0.99);
    s.max_ms = sorted.back();
  }
  return s;
}

ScoringService::StealTierTotals ScoringService::steal_tiers() const {
  std::lock_guard lk(mu_);
  return steal_tiers_;
}

std::uint64_t ScoringService::completed_for(const std::string& tenant) const {
  std::lock_guard lk(mu_);
  auto it = completed_by_tenant_.find(tenant);
  return it == completed_by_tenant_.end() ? 0 : it->second;
}

void ScoringService::export_metrics(trace::MetricsRegistry& m,
                                    const std::string& prefix) const {
  const auto scoped = [&](const char* name) {
    return prefix.empty() ? std::string(name) : std::string(name) + "." + prefix;
  };
  m.add_svc(prefix, counters());
  const CacheStats cs = cache_.stats();
  m.set(scoped("svc.cache.bytes"), static_cast<std::uint64_t>(cs.bytes));
  m.set(scoped("svc.cache.entries"), static_cast<std::uint64_t>(cs.entries));
  m.set(scoped("svc.cache.coalesced_builds"), cs.coalesced);
  const LatencySummary ls = latency();
  m.set(scoped("svc.latency.count"), static_cast<std::uint64_t>(ls.count));
  m.set(scoped("svc.latency.p50_ms"), ls.p50_ms);
  m.set(scoped("svc.latency.p95_ms"), ls.p95_ms);
  m.set(scoped("svc.latency.p99_ms"), ls.p99_ms);
  m.set(scoped("svc.latency.max_ms"), ls.max_ms);
  m.set(scoped("svc.cores.grants"), alloc_.grants());
  m.set(scoped("svc.cores.waits"), alloc_.waits());
  const StealTierTotals st = steal_tiers();
  m.add_steal_tiers(prefix, st.local, st.socket, st.remote, st.offblock);
  m.set(scoped("ws.pinned_workers"), st.pinned_workers);
}

}  // namespace octgb::svc
