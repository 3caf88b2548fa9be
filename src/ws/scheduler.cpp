#include "octgb/ws/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#ifdef __linux__
#include <sched.h>
#endif

#include "octgb/trace/trace.hpp"
#include "octgb/util/check.hpp"

namespace octgb::ws {

namespace {
thread_local Scheduler* tls_scheduler = nullptr;
thread_local void* tls_worker = nullptr;  // Scheduler::Worker*

/// One spin-wait hint: cheap on the issuing core, frees pipeline resources
/// for the SMT sibling. Falls back to a thread yield where no hint exists.
inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

/// Escalating backoff: pause bursts that double per failed round (1..32
/// pauses), then a thread yield so oversubscribed hosts still make
/// progress. Callers reset their round counter on success.
inline void backoff(int round) {
  constexpr int kYieldAfter = 6;
  if (round < kYieldAfter) {
    const int spins = 1 << std::min(round, 5);
    for (int i = 0; i < spins; ++i) cpu_pause();
  } else {
    std::this_thread::yield();
  }
}

/// Best-effort affinity pin of the calling thread; false when the call is
/// rejected (restricted cpuset, offline cpu, non-linux host).
bool pin_self(int cpu) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu), &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

}  // namespace

Scheduler::Scheduler(int workers) : Scheduler(workers, SchedulerOptions{}) {}

Scheduler::Scheduler(int workers, const SchedulerOptions& opts)
    : topo_(opts.topology ? opts.topology : &perf::topology()), opts_(opts) {
  OCTGB_CHECK_MSG(workers >= 1, "need at least one worker");
  trace_pid_ = trace::current_pid();
  const int ncpu = std::max(1, topo_->num_cpus());
  for (int i = 0; i < workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->id = i;
    w->sched = this;
    w->rng = util::Xoshiro256(0x5eedULL + static_cast<std::uint64_t>(i));
    w->block_core = opts_.pin_first + i;
    w->cpu = topo_->cpu((opts_.pin_first + i) % ncpu).id;
    all_workers_.push_back(std::move(w));
  }
  // Victim tiers, built once before any thread launches (read-only after):
  // probe order follows cache distance, victim choice within a tier stays
  // uniformly random.
  for (int i = 0; i < workers; ++i) {
    Worker& wi = *all_workers_[static_cast<std::size_t>(i)];
    for (int j = 0; j < workers; ++j) {
      if (j == i) continue;
      const int cj = all_workers_[static_cast<std::size_t>(j)]->cpu;
      const int tier = topo_->same_l3(wi.cpu, cj)       ? 0
                       : topo_->same_socket(wi.cpu, cj) ? 1
                                                        : 2;
      wi.tier[tier].push_back(static_cast<std::uint32_t>(j));
    }
  }
  for (int i = 1; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

Scheduler::~Scheduler() {
  shutdown_.store(true);
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

Scheduler* Scheduler::current() { return tls_scheduler; }

void Scheduler::run(const std::function<void()>& root) {
  OCTGB_CHECK_MSG(tls_scheduler == nullptr, "Scheduler::run is not reentrant");
  Worker& w0 = *all_workers_[0];
  // Worker 0 is the caller's thread: pin for the duration of run() only,
  // restoring the caller's mask afterwards so a service executor thread
  // that runs jobs with different leases is never left stuck on one core.
#ifdef __linux__
  cpu_set_t prev_mask;
  bool have_prev = false;
  if (opts_.pin) {
    have_prev = sched_getaffinity(0, sizeof(prev_mask), &prev_mask) == 0;
    w0.pinned.store(pin_self(w0.cpu), std::memory_order_relaxed);
  }
#endif
  tls_scheduler = this;
  tls_worker = &w0;
  active_.store(true);
  cv_.notify_all();
  // Drain: the root returned, but stolen grandchildren may still be live
  // only if the caller's fork-joins all completed — which they did, since
  // fork2/wait_for return only when their join counters hit zero. Safe to
  // deactivate, also when root() throws: a later run() on this thread
  // must not see a stale ambient scheduler.
  const auto deactivate = [&] {
    active_.store(false);
    tls_scheduler = nullptr;
    tls_worker = nullptr;
#ifdef __linux__
    if (have_prev) (void)sched_setaffinity(0, sizeof(prev_mask), &prev_mask);
#endif
  };
  try {
    root();
  } catch (...) {
    deactivate();
    throw;
  }
  deactivate();
}

void Scheduler::worker_loop(int id) {
  Worker& w = *all_workers_[static_cast<std::size_t>(id)];
  tls_scheduler = this;
  tls_worker = &w;
  if (opts_.pin)
    w.pinned.store(pin_self(w.cpu), std::memory_order_relaxed);
  // Label this worker's trace track under the creating rank's group (a
  // no-op unless tracing was enabled before the scheduler was built).
  if (trace::enabled())
    trace::set_thread_identity(trace_pid_, "worker" + std::to_string(id));
  int idle = 0;
  while (!shutdown_.load(std::memory_order_relaxed)) {
    if (!active_.load(std::memory_order_acquire)) {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(10), [&] {
        return shutdown_.load() || active_.load();
      });
      idle = 0;
      continue;
    }
    detail::Task* t = try_acquire(w);
    if (t) {
      execute(w, t);
      idle = 0;
    } else {
      backoff(idle);
      if (idle < 16) ++idle;
    }
  }
  tls_scheduler = nullptr;
  tls_worker = nullptr;
}

void Scheduler::spawn_task(Worker& w, std::function<void()> fn,
                           std::atomic<std::int64_t>* join) {
  auto* t = new detail::Task{std::move(fn), join};
  w.spawns.fetch_add(1, std::memory_order_relaxed);
  w.deque.push(t);
}

detail::Task* Scheduler::try_acquire(Worker& w) {
  if (detail::Task* t = w.deque.pop()) return t;
  if (all_workers_.size() <= 1) return nullptr;
  // Hierarchical stealing: walk the tiers nearest-first, up to two random
  // probes per tier, for two rounds with a pause between them. A thief
  // therefore tries its L3 neighbours before paying a cross-socket cache
  // miss, but an imbalanced remote socket is still reachable every call.
  constexpr int kRounds = 2;
  constexpr std::size_t kProbesPerTier = 2;
  for (int round = 0; round < kRounds; ++round) {
    if (round > 0) backoff(round - 1);
    for (int tier = 0; tier < 3; ++tier) {
      const auto& victims = w.tier[tier];
      if (victims.empty()) continue;
      const std::size_t probes = std::min(kProbesPerTier, victims.size());
      for (std::size_t p = 0; p < probes; ++p) {
        const std::uint32_t v = static_cast<std::uint32_t>(
            victims[w.rng.below(victims.size())]);
        w.steal_attempts.fetch_add(1, std::memory_order_relaxed);
        if (detail::Task* t = all_workers_[v]->deque.steal()) {
          w.steals.fetch_add(1, std::memory_order_relaxed);
          (tier == 0   ? w.local_steals
           : tier == 1 ? w.socket_steals
                       : w.remote_steals)
              .fetch_add(1, std::memory_order_relaxed);
          if (opts_.pin) {
            const int vb = all_workers_[v]->block_core;
            const int lo = opts_.pin_first;
            const int hi = opts_.pin_first + static_cast<int>(
                                                 all_workers_.size());
            if (vb < lo || vb >= hi)
              w.offblock_steals.fetch_add(1, std::memory_order_relaxed);
          }
          trace::instant("ws.steal");
          return t;
        }
      }
    }
  }
  return nullptr;
}

void Scheduler::execute(Worker& w, detail::Task* t) {
  w.executed.fetch_add(1, std::memory_order_relaxed);
  t->fn();
  if (t->join) t->join->fetch_sub(1, std::memory_order_acq_rel);
  delete t;
}

void Scheduler::wait_for(Worker& w, std::atomic<std::int64_t>& join) {
  int idle = 0;
  while (join.load(std::memory_order_acquire) > 0) {
    if (detail::Task* t = try_acquire(w)) {
      execute(w, t);
      idle = 0;
    } else {
      backoff(idle);
      if (idle < 16) ++idle;
    }
  }
}

void Scheduler::fork2(const std::function<void()>& f1,
                      const std::function<void()>& f2) {
  Scheduler* s = tls_scheduler;
  auto* w = static_cast<Worker*>(tls_worker);
  if (s == nullptr || w == nullptr || s->num_workers() == 1) {
    f1();
    f2();
    return;
  }
  std::atomic<std::int64_t> join{1};
  s->spawn_task(*w, f1, &join);
  f2();
  // Fast path: if nobody stole f1, run it inline.
  if (detail::Task* t = w->deque.pop()) {
    s->execute(*w, t);
  }
  s->wait_for(*w, join);
}

void Scheduler::fork_all(std::vector<std::function<void()>>& fns) {
  if (fns.empty()) return;
  Scheduler* s = tls_scheduler;
  auto* w = static_cast<Worker*>(tls_worker);
  if (s == nullptr || w == nullptr || s->num_workers() == 1 ||
      fns.size() == 1) {
    for (auto& f : fns) f();
    return;
  }
  std::atomic<std::int64_t> join{
      static_cast<std::int64_t>(fns.size() - 1)};
  for (std::size_t i = 1; i < fns.size(); ++i) {
    s->spawn_task(*w, std::move(fns[i]), &join);
  }
  fns[0]();
  // Drain our own deque first (tasks we just pushed), then wait helping.
  s->wait_for(*w, join);
}

namespace {

/// Resolve `grain <= 0` to the automatic grain: an eighth of a fair
/// per-worker share, so a full recursion produces ~8 stealable tasks per
/// worker — enough slack for load balancing without forking one task per
/// index (the old behaviour of a silent clamp to 1).
std::int64_t resolve_grain(std::int64_t grain, std::int64_t span,
                           const Scheduler* sched) {
  if (grain >= 1) return grain;
  const std::int64_t workers = sched ? sched->num_workers() : 1;
  return std::max<std::int64_t>(1, span / (8 * workers));
}

}  // namespace

void Scheduler::parallel_for(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& body) {
  if (begin >= end) return;
  grain = resolve_grain(grain, end - begin, tls_scheduler);
  if (end - begin <= grain || tls_scheduler == nullptr) {
    body(begin, end);
    return;
  }
  const std::int64_t mid = begin + (end - begin) / 2;
  fork2([=, &body] { parallel_for(begin, mid, grain, body); },
        [=, &body] { parallel_for(mid, end, grain, body); });
}

SchedulerStats Scheduler::stats() const {
  SchedulerStats s;
  for (const auto& w : all_workers_) {
    s.spawns += w->spawns.load(std::memory_order_relaxed);
    s.steals += w->steals.load(std::memory_order_relaxed);
    s.steal_attempts += w->steal_attempts.load(std::memory_order_relaxed);
    s.executed += w->executed.load(std::memory_order_relaxed);
    s.local_steals += w->local_steals.load(std::memory_order_relaxed);
    s.socket_steals += w->socket_steals.load(std::memory_order_relaxed);
    s.remote_steals += w->remote_steals.load(std::memory_order_relaxed);
    s.offblock_steals += w->offblock_steals.load(std::memory_order_relaxed);
    s.pinned_workers += w->pinned.load(std::memory_order_relaxed) ? 1 : 0;
  }
  return s;
}

void Scheduler::reset_stats() {
  for (auto& w : all_workers_) {
    w->spawns.store(0, std::memory_order_relaxed);
    w->steals.store(0, std::memory_order_relaxed);
    w->steal_attempts.store(0, std::memory_order_relaxed);
    w->executed.store(0, std::memory_order_relaxed);
    w->local_steals.store(0, std::memory_order_relaxed);
    w->socket_steals.store(0, std::memory_order_relaxed);
    w->remote_steals.store(0, std::memory_order_relaxed);
    w->offblock_steals.store(0, std::memory_order_relaxed);
  }
}

void with_workers(std::size_t work, std::size_t private_threshold,
                  const std::function<void(bool parallel)>& body) {
  if (const Scheduler* ambient = Scheduler::current()) {
    body(ambient->num_workers() > 1);
    return;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 1 && work >= private_threshold) {
    Scheduler pool(static_cast<int>(hw));
    pool.run([&] { body(true); });
    return;
  }
  body(false);
}

}  // namespace octgb::ws
