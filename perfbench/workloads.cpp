// The four workloads. Each is a closed loop with one caller in one process
// (one ws::Scheduler(4), or 2 ranks × 2 workers), driven by the seed. The
// untraced run measures end-to-end metrics over the timed window and checks
// a fixed sample of results against the naive reference afterwards; the
// traced run executes a fixed number of the same operations twice — once
// through the library call, once as the equivalent sequence of public
// calls with each layer timed — and compares the two.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "octgb/core/hybrid.hpp"
#include "octgb/core/naive.hpp"
#include "octgb/core/session.hpp"
#include "octgb/mol/zdock.hpp"
#include "octgb/trace/trace.hpp"
#include "octgb/util/rng.hpp"
#include "traced.hpp"

namespace perfbench {

using namespace octgb;

namespace {

constexpr int kWorkers = 4;
constexpr int kSetupRepeats = 5;
constexpr double kNaiveTol = 0.01;    // octree vs naive: the paper's 1 % budget
constexpr double kScreenTol = 0.01;   // CrossScreen vs Full on the same pose
constexpr double kHybridTol = 1e-9;   // OCT_MPI+CILK vs OCT_CILK
constexpr double kTracedTol = 1e-12;  // traced vs untraced (atomic folds)
constexpr double kParallelBornTol = 1e-9;  // Born radii from atomic sums
// Stated residual: |op wall − Σ layer times| ≤ 5 % of the op wall + 1 ms.
constexpr double kResidualShare = 0.05;
constexpr double kResidualFloorMs = 1.0;
// ε_epol values every docking pose is re-dialled to (Born-reuse path).
constexpr double kRedialEps[] = {0.5, 0.7};
// Docking probe of the non-docking workloads, run after their window:
// every kProbeRevisit-th point scores a new pose (Full included), the
// others re-score the last pose by CrossScreen and re-dials only.
constexpr int kProbePoints = 64;
constexpr int kProbeRevisit = 4;
const surface::SurfaceParams kProteinSurface{.subdivision = 1};
const surface::SurfaceParams kShellSurface{.subdivision = 0};

// The operations checked against the naive reference take their inputs
// from this fixed seed, whatever --seed is, so epol_rel_err compares
// across runs; every other operation's inputs come from --seed.
constexpr std::uint64_t kReferenceSeed = ~std::uint64_t{0};
constexpr std::size_t kReferenceOps = 2;  // md_refit frames, dock_screen poses

util::Xoshiro256 stream(std::uint64_t seed, std::uint64_t salt) {
  return util::Xoshiro256(seed * 0x9E3779B97F4A7C15ULL ^ salt);
}

geom::Vec3 random_axis(util::Xoshiro256& rng) {
  geom::Vec3 v{rng.normal(), rng.normal(), rng.normal()};
  return v.norm() > 1e-12 ? v.normalized() : geom::Vec3{0, 0, 1};
}

geom::RigidTransform about(const geom::Vec3& center, const geom::Mat3& rot) {
  return geom::RigidTransform::translate(center) *
         geom::RigidTransform::rotate(rot) *
         geom::RigidTransform::translate(-center);
}

/// A randomly oriented copy of `m` (rotated about its centroid).
mol::Molecule randomly_oriented(mol::Molecule m, util::Xoshiro256& rng) {
  const double angle = rng.uniform(0.0, 2.0 * M_PI);
  m.transform(about(m.centroid(), geom::Mat3::axis_angle(random_axis(rng),
                                                          angle)));
  return m;
}

double rss_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Moves the calling thread to the next CPU of its affinity mask, in turn.
/// On a shared VM the vCPUs run at different speeds that change over
/// seconds, and with every worker busy the kernel leaves the caller on the
/// vCPU it started on, so a serial operation's time depends on where the
/// process happened to land. Hopping before each operation makes every run
/// sample all vCPUs alike. The caller is pinned only for the move and gets
/// its whole mask back at once, so threads it creates later (a private
/// tree-build scheduler, hybrid ranks) are not confined to one CPU.
class CpuHop {
 public:
  CpuHop() {
    if (sched_getaffinity(0, sizeof mask_, &mask_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &mask_)) cpus_.push_back(c);
  }
  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    if (sched_setaffinity(0, sizeof one, &one) == 0)
      (void)sched_setaffinity(0, sizeof mask_, &mask_);
  }

 private:
  cpu_set_t mask_{};
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// --- naive reference --------------------------------------------------------

/// One geometry checked against naive_born_radii + naive_epol, with the
/// octree energies (and their operations) computed at that geometry.
struct NaiveCheck {
  mol::Molecule mol;
  surface::Surface surf;
  std::vector<std::pair<std::size_t, double>> energies;
};

/// Runs job(0..n) on kWorkers threads; rethrows the first exception once
/// every thread has joined.
template <class F>
void parallel_jobs(std::size_t n, F&& job) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::exception_ptr error;  // guarded by mu
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w)
    threads.emplace_back([&] {
      try {
        for (std::size_t i = next++; i < n; i = next++) job(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
    });
  for (auto& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

/// Atoms [begin, end) of `m` followed by atoms [begin2, end2).
mol::Molecule atom_blocks(const mol::Molecule& m, std::size_t begin,
                          std::size_t end, std::size_t begin2 = 0,
                          std::size_t end2 = 0) {
  mol::Molecule part;
  part.reserve(end - begin + end2 - begin2);
  for (std::size_t i = begin; i < end; ++i) part.add_atom(m.atom(i));
  for (std::size_t i = begin2; i < end2; ++i) part.add_atom(m.atom(i));
  return part;
}

/// Computes the references outside any timed window and checks each
/// energy; returns the worst relative error. Both references are split
/// across threads: a naive Born radius depends only on its own atom and
/// the whole surface, and the ordered-pair energy of atoms split into k
/// blocks is E = Σ_{i<j} E(B_i ∪ B_j) − (k − 2) Σ_i E(B_i).
double check_naive(std::vector<NaiveCheck>& checks, Ledger& ledger) {
  if (checks.empty())
    ledger.fail(ledger.attempt(),
                "no operation was checked against the naive reference");
  constexpr std::size_t kBornBlock = 512;
  constexpr std::size_t kEpolBlocks = 4;
  std::vector<std::vector<double>> born(checks.size());
  std::vector<std::pair<std::size_t, std::size_t>> born_jobs;  // (check, begin)
  for (std::size_t c = 0; c < checks.size(); ++c) {
    born[c].resize(checks[c].mol.size());
    for (std::size_t b = 0; b < checks[c].mol.size(); b += kBornBlock)
      born_jobs.push_back({c, b});
  }
  parallel_jobs(born_jobs.size(), [&](std::size_t k) {
    const auto [c, begin] = born_jobs[k];
    const std::size_t end = std::min(checks[c].mol.size(), begin + kBornBlock);
    const auto r = core::naive_born_radii(
        atom_blocks(checks[c].mol, begin, end), checks[c].surf);
    std::copy(r.begin(), r.end(), born[c].begin() + begin);
  });

  struct EpolJob {
    std::size_t check, i, j;  // blocks i and j (i == j: one block)
    double weight, value;
  };
  std::vector<EpolJob> epol_jobs;
  for (std::size_t c = 0; c < checks.size(); ++c)
    for (std::size_t i = 0; i < kEpolBlocks; ++i)
      for (std::size_t j = i; j < kEpolBlocks; ++j)
        epol_jobs.push_back(
            {c, i, j, i == j ? -(double(kEpolBlocks) - 2.0) : 1.0, 0.0});
  parallel_jobs(epol_jobs.size(), [&](std::size_t k) {
    EpolJob& job = epol_jobs[k];
    const mol::Molecule& m = checks[job.check].mol;
    const auto bound = [&](std::size_t b) { return b * m.size() / kEpolBlocks; };
    const std::size_t b0 = bound(job.i), e0 = bound(job.i + 1);
    const std::size_t b1 = job.i == job.j ? 0 : bound(job.j);
    const std::size_t e1 = job.i == job.j ? 0 : bound(job.j + 1);
    std::vector<double> r(born[job.check].begin() + b0,
                          born[job.check].begin() + e0);
    r.insert(r.end(), born[job.check].begin() + b1,
             born[job.check].begin() + e1);
    job.value = core::naive_epol(atom_blocks(m, b0, e0, b1, e1), r);
  });
  std::vector<double> ref(checks.size(), 0.0);
  for (const EpolJob& job : epol_jobs) ref[job.check] += job.weight * job.value;

  double worst = 0.0;
  for (std::size_t i = 0; i < checks.size(); ++i)
    for (const auto& [op, e] : checks[i].energies)
      worst = std::max(worst, ledger.check_rel(op, e, ref[i], kNaiveTol,
                                               "octree vs naive Epol"));
  return worst;
}

// --- traced-run bookkeeping -------------------------------------------------

/// The traced run's operations: each runs untraced, then traced; the traced
/// op's wall time must equal its layer sum within the stated residual.
struct TraceRun {
  Layers layers;
  std::vector<double> traced_ms, untraced_ms;
  double worst_residual_share = 0.0;

  template <class F>
  void untraced(F&& f) {
    const auto t0 = Clock::now();
    f();
    untraced_ms.push_back(ms_since(t0));
  }

  template <class F>
  void traced(Ledger& ledger, std::size_t op, F&& f) {
    layers.take_op_ms();
    const auto t0 = Clock::now();
    f();
    const double wall = ms_since(t0);
    const double residual = wall - layers.take_op_ms();
    layers.add("engine.residual_ms", residual);
    traced_ms.push_back(wall);
    worst_residual_share =
        std::max(worst_residual_share, std::abs(residual) / wall);
    if (std::abs(residual) > kResidualShare * wall + kResidualFloorMs)
      ledger.fail(op, "layer times do not sum to the operation wall time");
  }

  /// Per-layer metrics: times as the mean per traced operation, counts as
  /// run totals, plus the derived rates and ratios.
  void report(Outcome& out, const perf::PlanCounters& plan,
              const core::MoveStats& moves) const {
    const double ops = static_cast<double>(traced_ms.size());
    for (const auto& [name, v] : layers.values()) {
      // Layer times are named "*.ms" or "*_ms".
      const bool per_op = name.size() > 3 &&
                          (name.compare(name.size() - 3, 3, "_ms") == 0 ||
                           name.compare(name.size() - 3, 3, ".ms") == 0);
      out.metrics[name] = per_op ? v / ops : v;
    }
    const double born_ms = layers.get("born.integrals_ms") +
                           layers.get("plan.capture_ms") +
                           layers.get("plan.replay_ms");
    const double epol_ms = layers.get("epol.ms") + layers.get("epol.cross_ms");
    out.metrics["born.exact_per_s"] =
        born_ms > 0.0 ? layers.get("born.exact") / (born_ms / 1e3) : 0.0;
    out.metrics["epol.exact_per_s"] =
        epol_ms > 0.0 ? layers.get("epol.exact") / (epol_ms / 1e3) : 0.0;
    const double attempts = layers.get("ws.steal_attempts");
    out.metrics["ws.steal_success"] =
        attempts > 0.0 ? layers.get("ws.steals") / attempts : 0.0;
    const double supersteps = 3.0 * ops;
    out.metrics["mpp.imbalance"] =
        layers.get("mpp.imbalance") > 0.0
            ? layers.get("mpp.imbalance") / supersteps
            : 0.0;
    out.metrics["plan.builds"] = static_cast<double>(plan.builds);
    out.metrics["plan.replays"] = static_cast<double>(plan.replays);
    out.metrics["plan.born_reuses"] = static_cast<double>(plan.born_reuses);
    out.metrics["plan.invalidated_drift"] =
        static_cast<double>(plan.invalidated_drift);
    out.metrics["plan.invalidated_topology"] =
        static_cast<double>(plan.invalidated_topology);
    const double evals =
        static_cast<double>(plan.builds + plan.replays + plan.born_reuses);
    out.metrics["plan.reuse_ratio"] =
        evals > 0.0 ? (plan.replays + plan.born_reuses) / evals : 0.0;
    out.metrics["session.refits"] = static_cast<double>(moves.refits);
    out.metrics["session.rebuilds"] = static_cast<double>(moves.rebuilds);
    const double traced_p50 = p50(traced_ms);
    out.metrics["trace.op_ms"] = traced_p50;
    out.metrics["trace.overhead_ms"] = traced_p50 - p50(untraced_ms);
    out.metrics["trace.ops"] = ops;
    out.detail["residual_bound_share"] = kResidualShare;
    out.detail["residual_bound_floor_ms"] = kResidualFloorMs;
    out.detail["worst_residual_share"] = worst_residual_share;
  }
};

perf::PlanCounters minus(const perf::PlanCounters& a,
                         const perf::PlanCounters& b) {
  perf::PlanCounters d;
  d.builds = a.builds - b.builds;
  d.replays = a.replays - b.replays;
  d.born_reuses = a.born_reuses - b.born_reuses;
  d.invalidated_drift = a.invalidated_drift - b.invalidated_drift;
  d.invalidated_topology = a.invalidated_topology - b.invalidated_topology;
  return d;
}

core::MoveStats minus(const core::MoveStats& a, const core::MoveStats& b) {
  return {a.refits - b.refits, a.rebuilds - b.rebuilds};
}

/// The mirror took the same plan decisions as the library (all fields are
/// uint64 counters, so a byte comparison is a field comparison).
bool same_plan(const perf::PlanCounters& a, const perf::PlanCounters& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Traced and untraced results of one operation must agree: Born radii
/// bitwise where the Born phase is serial (plan capture and replay), else
/// within kParallelBornTol (atomic accumulation order changes the integral
/// in the last bits, and cancellation in the surface integral amplifies
/// that); Epol within kTracedTol (its atomic_add fold order varies).
void check_same(Ledger& ledger, std::size_t op, double epol_u, double epol_t,
                std::span<const double> born_u, std::span<const double> born_t,
                bool born_bitwise) {
  ledger.check_rel(op, epol_t, epol_u, kTracedTol, "traced vs untraced Epol");
  if (born_u.size() != born_t.size()) {
    ledger.fail(op, "traced vs untraced Born radii: sizes differ");
    return;
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < born_u.size(); ++i) {
    if (born_bitwise && born_u[i] != born_t[i]) {
      ledger.fail(op, "traced vs untraced Born radii differ in bits");
      return;
    }
    worst = std::max(worst, std::abs(born_u[i] - born_t[i]) /
                                std::abs(born_u[i]));
  }
  if (worst > kParallelBornTol) {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "traced vs untraced Born radii: rel %.3g > %.3g", worst,
                  kParallelBornTol);
    ledger.fail(op, buf);
  }
}

// --- docking rig ------------------------------------------------------------

/// bench_session's contact placement: the ligand touches the receptor on
/// the +x side.
mol::Molecule place_ligand(const mol::Molecule& receptor,
                           mol::Molecule ligand) {
  const geom::Vec3 center = receptor.centroid();
  double rec_radius = 0.0;
  for (const auto& a : receptor.atoms())
    rec_radius = std::max(rec_radius, geom::dist(a.pos, center) + a.radius);
  const geom::Vec3 lig_center = ligand.centroid();
  double lig_radius = 0.0;
  for (const auto& a : ligand.atoms())
    lig_radius = std::max(lig_radius, geom::dist(a.pos, lig_center) + a.radius);
  ligand.transform(geom::RigidTransform::translate(
      center + geom::Vec3{rec_radius + 0.6 * lig_radius, 0, 0} - lig_center));
  return ligand;
}

/// Per-pose timings of the three scoring paths.
struct DockTimes {
  std::vector<double> xscreen_ms, full_ms, redial_ms;
  std::size_t evals = 0;
};

/// The 1PPE_r_b + 1PPE_l_b complex in one primed ScoringSession (and, in
/// the traced run, its TracedSession mirror). Every pose is scored three
/// ways: CrossScreen, Full (apply_pose + evaluate), and the ε_epol
/// re-dials; CrossScreen is checked against Full.
class DockRig {
 public:
  DockRig(bool reduced, ws::Scheduler& sched, Layers* traced_layers)
      : complex_(make_complex(reduced)),
        surf_(surface::build_surface(complex_, kProteinSurface)),
        session_(complex_, surf_, {}, kProteinSurface) {
    session_.evaluate(&sched);
    const auto id = geom::RigidTransform::identity();
    session_.score_poses({&id, 1}, ligand_begin_, core::PoseMode::CrossScreen);
    base_eps_ = session_.engine().config().approx.eps_epol;
    if (traced_layers != nullptr) {
      Layers setup;
      mirror_ = std::make_unique<TracedSession>(complex_, surf_,
                                                kProteinSurface, setup);
      mirror_->evaluate(&sched);
      mirror_->prime_screen(ligand_begin_);
      mirror_->set_layers(*traced_layers);
    }
  }

  geom::RigidTransform next_pose(util::Xoshiro256& rng) const {
    // Small rigid wiggles around the contact placement.
    const double angle = rng.uniform(-0.1, 0.1);
    const geom::Vec3 shift{rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                           rng.uniform(-0.5, 0.5)};
    return geom::RigidTransform::translate(shift) *
           about(lig_center_, geom::Mat3::axis_angle(random_axis(rng), angle));
  }

  /// One pose scored three ways: CrossScreen, Full (apply_pose +
  /// evaluate) and the ε_epol re-dials of the posed complex.
  void step(const geom::RigidTransform& pose, ws::Scheduler& sched,
            Ledger& ledger, DockTimes& t, NaiveCheck* naive) {
    pose_ = pose;
    const auto [op_xs, xs] = screen(ledger, t);
    const std::size_t op_full = ledger.attempt();
    const auto t0 = Clock::now();
    session_.apply_pose(pose, ligand_begin_);
    full_ = session_.evaluate(&sched).epol;
    t.full_ms.push_back(ms_since(t0));
    ++t.evals;
    ledger.check_rel(op_xs, xs, full_, kScreenTol, "CrossScreen vs Full");
    if (naive != nullptr) {
      naive->mol = session_.molecule();
      naive->surf = session_.surface();
      naive->energies.push_back({op_full, full_});
    }
    redial(sched, ledger, t, naive);
  }

  /// The last pose again, without moving the complex: CrossScreen (checked
  /// against that pose's Full) and the re-dials.
  void revisit(ws::Scheduler& sched, Ledger& ledger, DockTimes& t) {
    const auto [op, xs] = screen(ledger, t);
    ledger.check_rel(op, xs, full_, kScreenTol, "CrossScreen vs Full");
    redial(sched, ledger, t, nullptr);
  }

  /// The same pose on both sessions, each scoring path compared.
  void traced_step(const geom::RigidTransform& pose, ws::Scheduler& sched,
                   Ledger& ledger, TraceRun& tr) {
    double xs_u = 0.0, xs_t = 0.0;
    const std::size_t op_xs = ledger.attempt();
    tr.untraced([&] {
      xs_u = session_.score_poses({&pose, 1}, ligand_begin_,
                                  core::PoseMode::CrossScreen)[0].epol;
    });
    tr.traced(ledger, op_xs, [&] { xs_t = mirror_->score_screen(pose); });
    ledger.check_rel(op_xs, xs_t, xs_u, kTracedTol,
                     "traced vs untraced CrossScreen");

    const std::size_t op_full = ledger.attempt();
    core::EvalResult full_u, full_t;
    tr.untraced([&] {
      session_.apply_pose(pose, ligand_begin_);
      full_u = session_.evaluate(&sched);
    });
    const std::vector<double> born_u(full_u.born.begin(), full_u.born.end());
    tr.traced(ledger, op_full, [&] {
      mirror_->apply_pose(pose, ligand_begin_);
      full_t = mirror_->evaluate(&sched);
    });
    check_same(ledger, op_full, full_u.epol, full_t.epol, born_u, full_t.born,
               /*born_bitwise=*/true);
    ledger.check_rel(op_xs, xs_u, full_u.epol, kScreenTol,
                     "CrossScreen vs Full");

    core::ApproxParams approx = session_.engine().config().approx;
    for (const double eps : kRedialEps) {
      const std::size_t op = ledger.attempt();
      approx.eps_epol = eps;
      double e_u = 0.0, e_t = 0.0;
      tr.untraced([&] { e_u = session_.evaluate_at(approx, &sched).epol; });
      tr.traced(ledger, op, [&] {
        mirror_->engine().approx().eps_epol = eps;
        e_t = mirror_->evaluate(&sched).epol;
      });
      ledger.check_rel(op, e_t, e_u, kTracedTol, "traced vs untraced re-dial");
    }
    session_.engine().approx().eps_epol = base_eps_;
    mirror_->engine().approx().eps_epol = base_eps_;
  }

  core::ScoringSession& session() { return session_; }
  TracedSession& mirror() { return *mirror_; }

 private:
  std::pair<std::size_t, double> screen(Ledger& ledger, DockTimes& t) {
    const std::size_t op = ledger.attempt();
    const auto t0 = Clock::now();
    const double epol = session_.score_poses({&pose_, 1}, ligand_begin_,
                                             core::PoseMode::CrossScreen)[0]
                            .epol;
    t.xscreen_ms.push_back(ms_since(t0));
    ++t.evals;
    return {op, epol};
  }

  /// Re-dials the current geometry through every kRedialEps (Born reuse);
  /// one sample: their mean time.
  void redial(ws::Scheduler& sched, Ledger& ledger, DockTimes& t,
              NaiveCheck* naive) {
    core::ApproxParams approx = session_.engine().config().approx;
    double ms = 0.0;
    for (const double eps : kRedialEps) {
      const std::size_t op = ledger.attempt();
      approx.eps_epol = eps;
      const auto t0 = Clock::now();
      const double e = session_.evaluate_at(approx, &sched).epol;
      ms += ms_since(t0);
      if (naive != nullptr) naive->energies.push_back({op, e});
    }
    session_.engine().approx().eps_epol = base_eps_;
    t.redial_ms.push_back(ms / std::size(kRedialEps));
    t.evals += std::size(kRedialEps);
  }

  mol::Molecule make_complex(bool reduced) {
    const mol::Molecule receptor =
        reduced ? mol::make_benchmark_molecule("1PPE_r_b", 500)
                : mol::make_benchmark_molecule("1PPE_r_b");
    const mol::Molecule ligand = place_ligand(
        receptor, reduced ? mol::make_benchmark_molecule("1PPE_l_b", 120)
                          : mol::make_benchmark_molecule("1PPE_l_b"));
    mol::Molecule complex_mol("1PPE_r_b+1PPE_l_b");
    for (const auto& a : receptor.atoms()) complex_mol.add_atom(a);
    ligand_begin_ = complex_mol.size();
    for (const auto& a : ligand.atoms()) complex_mol.add_atom(a);
    lig_center_ = ligand.centroid();
    return complex_mol;
  }

  std::size_t ligand_begin_ = 0;
  geom::Vec3 lig_center_;
  mol::Molecule complex_;
  surface::Surface surf_;
  core::ScoringSession session_;
  double base_eps_ = 0.0;
  geom::RigidTransform pose_ = geom::RigidTransform::identity();
  double full_ = 0.0;  ///< Full Epol at pose_
  std::unique_ptr<TracedSession> mirror_;
};

/// The docking-path metrics (redial_p50_ms, xscreen_p50_ms) of a
/// non-docking workload. BENCHMARK.json asks every workload for every
/// end-to-end metric, so these three run the dock_screen scoring on the same
/// complex for a fixed number of points, after their window has closed and
/// their peak RSS has been read: the rig neither shares the window's caches
/// nor counts in rss_peak_mb. The poses are fixed, not seeded: CrossScreen
/// cost jumps between poses (admissibility flips), so a few seeded poses
/// would make the median follow the seed.
void dock_probe(const Options& o, ws::Scheduler& sched, Outcome& out) {
  DockRig rig(o.reduced, sched, nullptr);
  util::Xoshiro256 rng = stream(kReferenceSeed, 0x9B0);
  DockTimes t;
  CpuHop hop;
  for (int i = 0; i < kProbePoints; ++i) {
    hop.next();
    if (i % kProbeRevisit == 0)
      rig.step(rig.next_pose(rng), sched, out.ledger, t, nullptr);
    else
      rig.revisit(sched, out.ledger, t);
  }
  out.metrics["redial_p50_ms"] = p50(t.redial_ms);
  out.metrics["xscreen_p50_ms"] = p50(t.xscreen_ms);
}

/// The timed window of an untraced run: --seconds of wall time, with the
/// library's tracer checked off at both ends and the caller moved to the
/// next CPU before each operation.
class Window {
 public:
  Window(const Options& o, Outcome& out) : out_(out) {
    require_tracer_off();
    start_ = Clock::now();
    deadline_ = start_ + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(o.seconds));
  }
  void between_ops() { hop_.next(); }
  bool open() const { return Clock::now() < deadline_; }
  /// Closes the window; returns its length in seconds.
  double close() {
    const double s = ms_since(start_) / 1e3;
    require_tracer_off();
    return s;
  }

 private:
  // A tracer left on fails the run (as one more failed operation).
  void require_tracer_off() {
    if (trace::enabled())
      out_.ledger.fail(out_.ledger.attempt(),
                       "trace::Tracer is enabled during the untraced run");
  }

  Outcome& out_;
  CpuHop hop_;
  Clock::time_point start_, deadline_;
};

/// Metrics shared by every untraced run.
void report_common(Outcome& out, const std::vector<double>& setup_s,
                   const std::vector<double>& op_ms, std::size_t evals,
                   double window_s) {
  out.metrics["setup_s"] = p50(setup_s);
  out.metrics["eval_p50_ms"] = p50(op_ms);
  const Tail t = tail(op_ms);
  out.metrics["eval_tail_ms"] = t.value;
  out.metrics["evals_per_s"] = static_cast<double>(evals) / window_s;
  out.metrics["rss_peak_mb"] = rss_peak_mb();
  out.detail["eval_tail_percentile"] = t.percentile;
  out.detail["eval_samples"] = static_cast<double>(t.samples);
  out.detail["window_s"] = window_s;
}

template <class Make>
auto timed_setup(const Options& o, std::vector<double>& setup_s, Make&& make) {
  const int repeats = o.trace ? 1 : kSetupRepeats;
  CpuHop hop;
  for (int i = 1;; ++i) {
    hop.next();
    const auto t0 = Clock::now();
    auto made = make();
    setup_s.push_back(ms_since(t0) / 1e3);
    if (i == repeats) return made;
  }
}

}  // namespace

// --- zdock_cold -------------------------------------------------------------

Outcome run_zdock_cold(const Options& o) {
  Outcome out;
  // The ZDock quick selection: every 4th entry plus the largest.
  const auto all = mol::zdock_set();
  std::vector<mol::BenchmarkEntry> set;
  for (std::size_t i = 0; i < all.size(); i += 4) set.push_back(all[i]);
  set.push_back(all.back());
  if (o.reduced) set.resize(3);

  // Set positions 0, 3, 6 and 9 keep their generated orientation and are
  // checked against the naive reference; the rest are oriented by the seed.
  // Set-up generates the set and samples every surface and builds every
  // tree once; the trees are dropped, as each operation builds its own.
  const auto sampled = [](std::size_t i) { return i % 3 == 0 && i < 10; };
  std::vector<double> setup_s;
  const std::vector<mol::Molecule> mols = timed_setup(o, setup_s, [&] {
    util::Xoshiro256 rng = stream(o.seed, 0x2D0C);
    std::vector<mol::Molecule> m;
    for (std::size_t i = 0; i < set.size(); ++i) {
      mol::Molecule g = mol::make_benchmark_molecule(set[i].name);
      m.push_back(sampled(i) ? std::move(g) : randomly_oriented(g, rng));
      (void)core::Preprocessed::build(
          m.back(), surface::build_surface(m.back(), kProteinSurface));
    }
    return m;
  });
  ws::Scheduler sched(kWorkers);
  for (const mol::Molecule& m : mols) out.detail["atoms"] += m.size();

  if (o.trace) {
    TraceRun tr;
    for (const mol::Molecule& m : mols) {
      const std::size_t op = out.ledger.attempt();
      ColdResult u, t;
      tr.untraced([&] { u = cold_eval(m, kProteinSurface, sched); });
      tr.traced(out.ledger, op, [&] {
        t = cold_eval_traced(m, kProteinSurface, sched, tr.layers);
      });
      check_same(out.ledger, op, u.epol, t.epol, u.born, t.born,
                 /*born_bitwise=*/false);
    }
    tr.report(out, {}, {});
    return out;
  }

  std::vector<NaiveCheck> naive;
  std::vector<std::vector<double>> mol_ms(mols.size());
  std::vector<double> all_ms, pass_ms;
  std::size_t evals = 0;
  Window win(o, out);
  do {
    double pass = 0.0;
    for (std::size_t i = 0; i < mols.size(); ++i) {
      win.between_ops();
      const std::size_t op = out.ledger.attempt();
      const auto t0 = Clock::now();
      ColdResult r = cold_eval(mols[i], kProteinSurface, sched);
      mol_ms[i].push_back(ms_since(t0));
      all_ms.push_back(mol_ms[i].back());
      pass += mol_ms[i].back();
      ++evals;
      if (pass_ms.empty() && sampled(i))
        naive.push_back({mols[i], std::move(r.surf), {{op, r.epol}}});
    }
    pass_ms.push_back(pass);
  } while (win.open());
  const double window_s = win.close();

  report_common(out, setup_s, all_ms, evals, window_s);
  // The set mixes sizes, so the median of all samples sits between two
  // molecules; the median over molecules of their medians does not.
  std::vector<double> per_molecule;
  for (const auto& v : mol_ms) per_molecule.push_back(p50(v));
  out.metrics["eval_p50_ms"] = p50(per_molecule);
  out.metrics["time_to_energy_s"] = p50(pass_ms) / 1e3;
  out.detail["passes"] = static_cast<double>(pass_ms.size());
  dock_probe(o, sched, out);
  out.metrics["epol_rel_err"] = check_naive(naive, out.ledger);
  return out;
}

// --- md_refit ---------------------------------------------------------------

Outcome run_md_refit(const Options& o) {
  Outcome out;
  constexpr double kJitterSigma = 0.02;  // Å, thermal-scale displacement
  ws::Scheduler sched(kWorkers);
  const mol::Molecule base = o.reduced
                                 ? mol::make_benchmark_molecule("1BGX_r_b", 1500)
                                 : mol::make_benchmark_molecule("1BGX_r_b");
  out.detail["atoms"] = static_cast<double>(base.size());
  std::vector<double> setup_s;
  auto session = timed_setup(o, setup_s, [&] {
    auto s = std::make_unique<core::ScoringSession>(
        base, surface::build_surface(base, kProteinSurface), core::EngineConfig{},
        kProteinSurface);
    s->evaluate(&sched);
    return s;
  });

  // Frame f: the base coordinates plus a fresh jitter, seeded by --seed
  // after the reference frames.
  util::Xoshiro256 seeded = stream(o.seed, 0x3D);
  util::Xoshiro256 reference = stream(kReferenceSeed, 0x3D);
  mol::Molecule frame = base;
  std::vector<geom::Vec3> pos(base.size());
  std::size_t frames_made = 0;
  const auto next_frame = [&] {
    util::Xoshiro256& rng =
        frames_made++ < kReferenceOps ? reference : seeded;
    for (std::size_t i = 0; i < base.size(); ++i) {
      pos[i] = base.atom(i).pos +
               geom::Vec3{rng.normal(), rng.normal(), rng.normal()} *
                   kJitterSigma;
      frame.atoms()[i].pos = pos[i];
    }
  };

  if (o.trace) {
    TraceRun tr;
    Layers setup;
    TracedSession mirror(base, surface::build_surface(base, kProteinSurface),
                         kProteinSurface, setup);
    mirror.evaluate(&sched);
    mirror.set_layers(tr.layers);
    const perf::PlanCounters plan0 = mirror.plan_stats();
    const core::MoveStats moves0 = mirror.move_stats();
    const int frames = o.reduced ? 4 : 10;
    for (int f = 0; f < frames; ++f) {
      next_frame();
      const std::size_t op = out.ledger.attempt();
      core::EvalResult u, t;
      tr.untraced([&] {
        session->update(pos, surface::build_surface(frame, kProteinSurface));
        u = session->evaluate(&sched);
      });
      const std::vector<double> born_u(u.born.begin(), u.born.end());
      tr.traced(out.ledger, op, [&] {
        surface::Surface surf;
        tr.layers.time("surface.ms", [&] {
          surf = surface::build_surface(frame, kProteinSurface);
        });
        tr.layers.add("surface.points", static_cast<double>(surf.size()));
        mirror.update(pos, surf);
        t = mirror.evaluate(&sched);
      });
      check_same(out.ledger, op, u.epol, t.epol, born_u, t.born,
                 /*born_bitwise=*/true);
    }
    if (!same_plan(mirror.plan_stats(), session->plan_stats()))
      out.ledger.fail(0, "traced plan decisions differ from the session's");
    tr.report(out, minus(mirror.plan_stats(), plan0),
              minus(mirror.move_stats(), moves0));
    return out;
  }

  std::vector<NaiveCheck> naive;
  std::vector<double> frame_ms;
  Window win(o, out);
  do {
    win.between_ops();
    next_frame();
    const std::size_t op = out.ledger.attempt();
    const auto t0 = Clock::now();
    surface::Surface surf = surface::build_surface(frame, kProteinSurface);
    session->update(pos, surf);
    const double epol = session->evaluate(&sched).epol;
    frame_ms.push_back(ms_since(t0));
    if (frame_ms.size() <= kReferenceOps)
      naive.push_back({frame, std::move(surf), {{op, epol}}});
  } while (win.open());
  const double window_s = win.close();

  report_common(out, setup_s, frame_ms, frame_ms.size(), window_s);
  out.metrics["time_to_energy_s"] = mean(frame_ms) / 1e3;
  dock_probe(o, sched, out);
  out.metrics["epol_rel_err"] = check_naive(naive, out.ledger);
  return out;
}

// --- dock_screen ------------------------------------------------------------

Outcome run_dock_screen(const Options& o) {
  Outcome out;
  ws::Scheduler sched(kWorkers);
  TraceRun tr;
  std::vector<double> setup_s;
  auto rig = timed_setup(o, setup_s, [&] {
    return std::make_unique<DockRig>(o.reduced, sched,
                                     o.trace ? &tr.layers : nullptr);
  });
  out.detail["atoms"] =
      static_cast<double>(rig->session().molecule().size());
  util::Xoshiro256 seeded = stream(o.seed, 0xD0C);
  util::Xoshiro256 reference = stream(kReferenceSeed, 0xD0C);
  std::size_t pose = 0;
  const auto next_pose = [&] {
    return rig->next_pose(pose++ < kReferenceOps ? reference : seeded);
  };

  if (o.trace) {
    const perf::PlanCounters plan0 = rig->mirror().plan_stats();
    const core::MoveStats moves0 = rig->mirror().move_stats();
    const int poses = o.reduced ? 4 : 12;
    for (int p = 0; p < poses; ++p)
      rig->traced_step(next_pose(), sched, out.ledger, tr);
    if (!same_plan(rig->mirror().plan_stats(), rig->session().plan_stats()))
      out.ledger.fail(0, "traced plan decisions differ from the session's");
    tr.report(out, minus(rig->mirror().plan_stats(), plan0),
              minus(rig->mirror().move_stats(), moves0));
    return out;
  }

  std::vector<NaiveCheck> naive(kReferenceOps);
  DockTimes t;
  Window win(o, out);
  do {
    win.between_ops();
    const std::size_t p = pose;
    rig->step(next_pose(), sched, out.ledger, t,
              p < naive.size() ? &naive[p] : nullptr);
  } while (win.open());
  const double window_s = win.close();
  std::erase_if(naive, [](const NaiveCheck& c) { return c.energies.empty(); });

  report_common(out, setup_s, t.full_ms, t.evals, window_s);
  out.metrics["time_to_energy_s"] = mean(t.full_ms) / 1e3;
  out.metrics["redial_p50_ms"] = p50(t.redial_ms);
  out.metrics["xscreen_p50_ms"] = p50(t.xscreen_ms);
  out.metrics["epol_rel_err"] = check_naive(naive, out.ledger);
  return out;
}

// --- hybrid_cmv -------------------------------------------------------------

Outcome run_hybrid_cmv(const Options& o) {
  Outcome out;
  core::HybridConfig config;
  config.ranks = 2;
  config.threads_per_rank = 2;
  struct Input {
    mol::Molecule mol;
    surface::Surface surf;
    std::unique_ptr<core::GBEngine> engine;
  };
  const auto make_input = [&](mol::Molecule m) {
    Input i;
    i.mol = std::move(m);
    i.surf = surface::build_surface(i.mol, kShellSurface);
    i.engine = std::make_unique<core::GBEngine>(i.mol, i.surf);
    return i;
  };
  const double scale = o.reduced ? 0.005 : 0.05;
  // The CMV′ shell has a generator seed of its own; --seed orients it.
  std::vector<double> setup_s;
  const Input in = timed_setup(o, setup_s, [&] {
    util::Xoshiro256 rng = stream(o.seed, 0xC3F);
    return make_input(randomly_oriented(mol::make_cmv(scale), rng));
  });
  const core::GBEngine& engine = *in.engine;
  out.detail["atoms"] = static_cast<double>(in.mol.size());

  if (o.trace) {
    TraceRun tr;
    const int runs = o.reduced ? 3 : 6;
    for (int k = 0; k < runs; ++k) {
      const std::size_t op = out.ledger.attempt();
      core::HybridResult u;
      HybridTraced t;
      tr.untraced([&] { u = core::run_hybrid(engine, config); });
      tr.traced(out.ledger, op,
                [&] { t = run_hybrid_traced(engine, config, tr.layers); });
      check_same(out.ledger, op, u.epol, t.epol, u.born, t.born,
                 /*born_bitwise=*/false);
    }
    tr.report(out, {}, {});
    return out;
  }

  std::vector<std::pair<std::size_t, double>> results;
  std::vector<double> first_born;
  std::vector<double> run_ms;
  Window win(o, out);
  do {
    win.between_ops();
    const std::size_t op = out.ledger.attempt();
    const auto t0 = Clock::now();
    core::HybridResult h = core::run_hybrid(engine, config);
    run_ms.push_back(ms_since(t0));
    results.push_back({op, h.epol});
    if (first_born.empty()) first_born = std::move(h.born);
  } while (win.open());
  const double window_s = win.close();
  report_common(out, setup_s, run_ms, run_ms.size(), window_s);
  out.metrics["time_to_energy_s"] = mean(run_ms) / 1e3;
  ws::Scheduler sched(kWorkers);
  dock_probe(o, sched, out);

  // Every hybrid result against OCT_CILK on the same engine.
  const core::EnergyResult cilk = engine.compute(&sched);
  for (const auto& [op, e] : results)
    out.ledger.check_rel(op, e, cilk.epol, kHybridTol,
                         "OCT_MPI+CILK vs OCT_CILK Epol");
  for (std::size_t i = 0; i < cilk.born.size(); ++i)
    if (std::abs(first_born[i] - cilk.born[i]) >
        kHybridTol * std::abs(cilk.born[i])) {
      out.ledger.fail(results.front().first,
                      "OCT_MPI+CILK vs OCT_CILK Born radii");
      break;
    }
  // The naive-checked operation: one more run on the shell in its generated
  // orientation, so epol_rel_err does not follow the seed.
  Input ref = make_input(mol::make_cmv(scale));
  const std::size_t op = out.ledger.attempt();
  const double epol = core::run_hybrid(*ref.engine, config).epol;
  std::vector<NaiveCheck> naive;
  naive.push_back({std::move(ref.mol), std::move(ref.surf), {{op, epol}}});
  out.metrics["epol_rel_err"] = check_naive(naive, out.ledger);
  return out;
}

}  // namespace perfbench
