#pragma once
/// \file scheduler.hpp
/// Cilk-style randomized work-stealing scheduler (Blumofe & Leiserson).
///
/// This is the shared-memory half of the paper's hybrid algorithm: inside
/// each mpp rank, recursive tree traversals fork child subtrees which idle
/// workers steal. The discipline matches cilk++: owners work newest-first
/// off their own deque; thieves steal oldest-first from a victim ("implicit
/// dynamic load balancing", §IV-A of the paper).
///
/// Victim selection is locality-aware: each worker is mapped onto a cpu and
/// thieves probe victims in cache-distance order — same-L3 first, then
/// same-socket, then remote — with a pause/yield backoff ladder between
/// probe rounds. Within a tier the victim is still uniformly random, so the
/// Cilk load-balancing argument survives; the hierarchy only biases *which*
/// random victim gets probed first. Stealing order never affects results:
/// task execution is unordered by construction (fork-join with commutative
/// joins), so any victim policy yields bitwise-identical output.
///
/// Code written against this API also runs with no scheduler at all:
/// fork-join and parallel_for degrade to serial execution when called from
/// a thread with no worker context, so the naive/serial engines share the
/// same kernels.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "octgb/perf/topology.hpp"
#include "octgb/util/rng.hpp"
#include "octgb/ws/deque.hpp"

namespace octgb::ws {

namespace detail {

/// A spawned closure plus its join counter.
struct Task {
  std::function<void()> fn;
  std::atomic<std::int64_t>* join;
};

}  // namespace detail

/// Aggregate scheduler statistics (for the machine model and tests).
struct SchedulerStats {
  std::uint64_t spawns = 0;
  std::uint64_t steals = 0;        ///< successful steals
  std::uint64_t steal_attempts = 0;
  std::uint64_t executed = 0;      ///< tasks executed (stolen or local)
  // Successful steals classified by cache distance between thief and
  // victim cpus. local + socket + remote == steals.
  std::uint64_t local_steals = 0;   ///< victim shares the thief's L3
  std::uint64_t socket_steals = 0;  ///< same socket, different L3
  std::uint64_t remote_steals = 0;  ///< across a socket boundary
  /// Steals whose victim sits outside the thief's pinned core block.
  /// Structurally zero for a pinned scheduler (victims are the scheduler's
  /// own workers, all inside the block); a nonzero value would mean the
  /// core-lease isolation contract broke.
  std::uint64_t offblock_steals = 0;
  std::uint64_t pinned_workers = 0;  ///< workers whose affinity call stuck
};

/// Placement options for a Scheduler.
struct SchedulerOptions {
  /// Topology used for victim tiers and core mapping; nullptr means the
  /// host topology (perf::topology()).
  const perf::CpuTopology* topology = nullptr;
  /// Pin each worker's thread to its assigned cpu (best effort: a failing
  /// affinity call leaves the worker unpinned and counted accordingly).
  bool pin = false;
  /// First core of the worker block. Worker i maps to core pin_first + i
  /// (modulo the topology size). With svc::CoreAllocator this is the
  /// lease's first core, so a width-W scheduler occupies exactly the
  /// leased contiguous block.
  int pin_first = 0;
};

/// Work-stealing scheduler. Construct with the desired worker count; the
/// caller of run() becomes worker 0 and `workers - 1` background threads
/// are spawned.
class Scheduler {
 public:
  explicit Scheduler(int workers);
  Scheduler(int workers, const SchedulerOptions& opts);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()) + 1; }

  /// Execute `root` to completion with this scheduler active. The calling
  /// thread participates as worker 0. Not reentrant. An exception escaping
  /// `root` propagates after the scheduler is deactivated.
  void run(const std::function<void()>& root);

  /// Statistics accumulated since construction (or reset_stats()).
  SchedulerStats stats() const;
  void reset_stats();

  /// The scheduler the current thread is executing under, or nullptr.
  static Scheduler* current();

  // --- fork-join API (static: usable from any task) ----------------------

  /// Run f1 and f2 as parallel siblings; returns when both are done.
  /// Serial (f1 then f2) when no scheduler is active.
  static void fork2(const std::function<void()>& f1,
                    const std::function<void()>& f2);

  /// Fork every closure in `fns` and wait for all (the octree recursion
  /// forks up to 8 children at once).
  static void fork_all(std::vector<std::function<void()>>& fns);

  /// Recursive-halving parallel loop over [begin, end) with grain size
  /// `grain`. The body receives a [lo, hi) subrange. `grain <= 0` means
  /// "auto": the grain becomes max(1, (end-begin)/(8*workers)) — about
  /// eight stealable tasks per worker — instead of forking one task per
  /// index. With no active scheduler, auto resolves against one worker.
  static void parallel_for(std::int64_t begin, std::int64_t end,
                           std::int64_t grain,
                           const std::function<void(std::int64_t,
                                                    std::int64_t)>& body);

 private:
  struct Worker {
    ChaseLevDeque<detail::Task> deque;
    util::Xoshiro256 rng;
    // Relaxed atomics: each counter is written by its own thread only, but
    // stats() reads them from the caller's thread while idle workers may
    // still be bumping steal_attempts mid-iteration.
    std::atomic<std::uint64_t> spawns{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> steal_attempts{0};
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> local_steals{0};
    std::atomic<std::uint64_t> socket_steals{0};
    std::atomic<std::uint64_t> remote_steals{0};
    std::atomic<std::uint64_t> offblock_steals{0};
    int id = 0;
    int cpu = 0;        ///< topology cpu this worker maps to
    int block_core = 0; ///< pin_first + id (no modulo): lease-block slot
    std::atomic<bool> pinned{false};
    // Victim worker ids by cache distance from this worker's cpu:
    // [0] same L3, [1] same socket / different L3, [2] remote socket.
    // Built once in the constructor, read-only afterwards.
    std::vector<std::uint32_t> tier[3];
    Scheduler* sched = nullptr;
  };

  void worker_loop(int id);
  void spawn_task(Worker& w, std::function<void()> fn,
                  std::atomic<std::int64_t>* join);
  detail::Task* try_acquire(Worker& w);
  void execute(Worker& w, detail::Task* t);
  void wait_for(Worker& w, std::atomic<std::int64_t>& join);

  std::vector<std::unique_ptr<Worker>> all_workers_;  // [0] = caller's
  std::vector<std::thread> workers_;                  // background threads
  const perf::CpuTopology* topo_ = nullptr;
  SchedulerOptions opts_;
  // Trace track group (mpp rank) of the constructing thread, inherited by
  // the background workers so their spans land under the right rank.
  std::int32_t trace_pid_ = 0;
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> active_{false};
  std::mutex mu_;
  std::condition_variable cv_;

  friend struct detail::Task;
};

/// Run `body(parallel)` on the workers a self-parallel library call may
/// use, without the caller passing a scheduler:
///   - inside Scheduler::run, on that ambient scheduler — `parallel` is
///     true when it has more than one worker, and a 1-worker ambient
///     scheduler runs the body inline and serial (svc cold builds rely on
///     this to stay inside their core lease);
///   - otherwise, when `work >= private_threshold` and the host has more
///     than one hardware thread, on a private pool as wide as the host,
///     with `parallel` true;
///   - otherwise inline with no scheduler, `parallel` false.
/// The Morton tree build and surface sampling share this policy; both
/// produce bit-identical output on every branch.
void with_workers(std::size_t work, std::size_t private_threshold,
                  const std::function<void(bool parallel)>& body);

}  // namespace octgb::ws
