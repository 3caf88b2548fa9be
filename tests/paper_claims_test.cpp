// Direct assertions of the paper's headline quantitative claims that are
// not already pinned down by the per-module suites.

#include <gtest/gtest.h>

#include <cmath>

#include "octgb/core/engine.hpp"
#include "octgb/core/naive.hpp"
#include "octgb/core/session.hpp"
#include "octgb/mol/generate.hpp"
#include "octgb/mol/zdock.hpp"
#include "octgb/sim/cluster.hpp"
#include "octgb/simd/dispatch.hpp"
#include "octgb/simd/types.hpp"
#include "octgb/surface/surface.hpp"

using namespace octgb;

TEST(PaperClaims, OctreeWorkIsSubQuadraticInAtoms) {
  // The whole point of the near–far decomposition: total interaction work
  // grows clearly slower than M² on shell geometries. Fit the exponent
  // over a 4× size range and require it well below 2 (naive) — the paper
  // claims "preferably linear"; the measured exponent on capsid shells
  // lands near ~1.2.
  std::vector<double> log_m, log_w;
  for (std::size_t n : {8000u, 16000u, 32000u}) {
    const auto m = mol::generate_virus_shell({.target_atoms = n, .seed = 7});
    const auto surf = surface::build_surface(m, {.subdivision = 0});
    core::GBEngine engine(m, surf);
    const auto r = engine.compute();
    log_m.push_back(std::log(static_cast<double>(m.size())));
    log_w.push_back(std::log(static_cast<double>(
        r.work.total_interactions())));
  }
  // Least-squares slope of log W vs log M.
  const std::size_t k = log_m.size();
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < k; ++i) {
    sx += log_m[i];
    sy += log_w[i];
    sxx += log_m[i] * log_m[i];
    sxy += log_m[i] * log_w[i];
  }
  const double slope = (k * sxy - sx * sy) / (k * sxx - sx * sx);
  EXPECT_LT(slope, 1.6) << "work should scale clearly below M^2";
  EXPECT_GT(slope, 0.8) << "and at least linearly";
}

TEST(PaperClaims, HybridBeatsPureMpiAtFullClusterScale) {
  // §V-B/§V-C: at 144+ cores on a virus shell, OCT_MPI+CILK's modeled
  // total time is at or below OCT_MPI's (less communication, less cache
  // pressure, smaller straggler exposure).
  const auto m = mol::generate_virus_shell({.target_atoms = 20000, .seed = 7});
  const auto surf = surface::build_surface(m, {.subdivision = 0});
  core::GBEngine engine(m, surf);

  sim::ClusterConfig mpi;
  mpi.ranks = 144;
  mpi.threads_per_rank = 1;
  mpi.topology.ranks_per_node = 12;
  sim::ClusterConfig hyb;
  hyb.ranks = 24;
  hyb.threads_per_rank = 6;
  hyb.topology.ranks_per_node = 2;

  const auto rm = sim::simulate_cluster(engine, mpi);
  const auto rh = sim::simulate_cluster(engine, hyb);
  ASSERT_EQ(rm.total_cores, rh.total_cores);
  EXPECT_LE(rh.total_seconds, rm.total_seconds * 1.05);
  // And the energies are identical — same physics, different schedule.
  EXPECT_NEAR(rh.epol, rm.epol, 1e-9 * std::abs(rm.epol));
}

TEST(PaperClaims, SpeedupVsSerialGrowsWithCores) {
  // Fig. 5's basic property, asserted end to end on measured work: the
  // modeled time at P·12 cores shrinks monotonically and the 12-node
  // speedup w.r.t. 1 node exceeds 6× (the paper reaches ~8–10× there).
  const auto m = mol::generate_virus_shell({.target_atoms = 15000, .seed = 7});
  const auto surf = surface::build_surface(m, {.subdivision = 0});
  core::GBEngine engine(m, surf);
  double t1 = 0;
  double prev = 1e300;
  for (int nodes : {1, 2, 4, 8, 12}) {
    sim::ClusterConfig cfg;
    cfg.ranks = nodes * 12;
    cfg.threads_per_rank = 1;
    const auto r = sim::simulate_cluster(engine, cfg);
    if (nodes == 1) t1 = r.total_seconds;
    EXPECT_LT(r.total_seconds, prev) << nodes << " nodes";
    prev = r.total_seconds;
  }
  // The paper reaches ~8-10x on the 6M-atom BTV; this 15k-atom test shell
  // leaves more static-division imbalance per rank, so demand a bit less.
  EXPECT_GT(t1 / prev, 5.0);
}

TEST(PaperClaims, ErrorBudgetHoldsAcrossTheSizeLadder) {
  // "<1% error w.r.t. the naive exact algorithm" at ε_born = 0.9, checked
  // at three points across the ZDock size range (small/medium/large-ish;
  // the full-ladder check lives in bench_fig9_energy) and at every
  // ε_epol a re-dial uses (0.5, 0.7) as well as the default 0.9.
  for (const char* name : {"1PPE_l_b", "1WQ1_l_b", "1DE4_r_b"}) {
    const auto m = mol::make_benchmark_molecule(name);
    const auto surf = surface::build_surface(m);
    const auto naive_born = core::naive_born_radii(m, surf);
    const double naive_e = core::naive_epol(m, naive_born);
    for (const double eps_epol : {0.5, 0.7, 0.9}) {
      core::EngineConfig cfg;
      cfg.approx.eps_epol = eps_epol;
      core::GBEngine engine(m, surf, cfg);
      const double e = engine.compute().epol;
      EXPECT_LT(std::abs(e - naive_e) / std::abs(naive_e), 0.01)
          << name << " eps_epol " << eps_epol;
    }
  }
}

TEST(PaperClaims, CrossScreenDeviationIsBoundedUnderEveryWidth) {
  // Pose screening is the throughput consumer of the vector kernels; the
  // acceptance bound is that switching width moves a CrossScreen complex
  // energy by at most 0.7% relative to the scalar reference — small
  // against the mode's own few-percent envelope vs Full mode, so kernel
  // choice never dominates a screening decision.
  mol::Molecule rec = mol::generate_protein({.target_atoms = 500, .seed = 7});
  mol::Molecule lig = mol::generate_protein({.target_atoms = 120, .seed = 8});
  lig.transform(geom::RigidTransform::translate({15.0, 0, 0}));
  mol::Molecule combined;
  for (const auto& a : rec.atoms()) combined.add_atom(a);
  const std::size_t ligand_begin = combined.size();
  for (const auto& a : lig.atoms()) combined.add_atom(a);
  const auto surf = surface::build_surface(combined, {.subdivision = 1});

  std::vector<geom::RigidTransform> poses;
  for (double shift : {0.0, 4.0, 12.0})
    poses.push_back(geom::RigidTransform::translate({shift, 0, 0}));

  const auto screen_epols = [&](simd::VectorParams vec) {
    core::EngineConfig cfg;
    cfg.approx.vector = vec;
    core::ScoringSession session(combined, surf, cfg, {.subdivision = 1});
    return session.score_poses(poses, ligand_begin,
                               core::PoseMode::CrossScreen);
  };

  const auto ref = screen_epols({simd::VectorIsa::Scalar});
  for (simd::VectorIsa isa : {simd::VectorIsa::V128, simd::VectorIsa::V256}) {
    if (!simd::isa_available(isa)) continue;
    const auto got = screen_epols({isa});
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_LT(std::abs(got[i].epol - ref[i].epol) / std::abs(ref[i].epol),
                0.007)
          << simd::isa_name(isa) << " pose " << i;
    }
  }
}
