// Cross-cutting determinism and reproducibility tests: the whole
// reproduction rests on bit-stable synthetic inputs and schedule-stable
// results.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "octgb/core/engine.hpp"
#include "octgb/core/epol.hpp"
#include "octgb/core/forces.hpp"
#include "octgb/core/hybrid.hpp"
#include "octgb/core/naive.hpp"
#include "octgb/mol/generate.hpp"
#include "octgb/mol/pdb.hpp"
#include "octgb/mol/zdock.hpp"
#include "octgb/sim/cluster.hpp"
#include "octgb/surface/surface.hpp"
#include "octgb/util/rng.hpp"
#include "octgb/ws/scheduler.hpp"

// The far-gradient pass is internal to octgb_core.
#include "../src/core/born_walk.hpp"

using namespace octgb;

namespace {

/// Order-sensitive digest of a molecule's geometry and charges.
std::uint64_t digest(const mol::Molecule& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    h ^= bits;
    h *= 0x100000001b3ULL;
  };
  for (const auto& a : m.atoms()) {
    mix(a.pos.x);
    mix(a.pos.y);
    mix(a.pos.z);
    mix(a.charge);
    mix(a.radius);
  }
  return h;
}

}  // namespace

TEST(Determinism, BenchmarkMoleculesAreBitStableAcrossCalls) {
  for (const char* name : {"1PPE_l_b", "1WQ1_l_b", "1BGX_l_b"}) {
    const auto a = mol::make_benchmark_molecule(name);
    const auto b = mol::make_benchmark_molecule(name);
    EXPECT_EQ(digest(a), digest(b)) << name;
  }
}

TEST(Determinism, DifferentNamesGiveDifferentMolecules) {
  const auto a = mol::make_benchmark_molecule("1PPE_l_b");
  const auto b = mol::make_benchmark_molecule("1PPE_r_b", a.size());
  EXPECT_NE(digest(a), digest(b));
}

TEST(Determinism, VirusShellsAreBitStable) {
  EXPECT_EQ(digest(mol::make_cmv(0.01)), digest(mol::make_cmv(0.01)));
  EXPECT_EQ(digest(mol::make_btv(0.001)), digest(mol::make_btv(0.001)));
  EXPECT_NE(digest(mol::make_cmv(0.01)), digest(mol::make_btv(0.001)));
}

TEST(Determinism, SurfaceSamplingIsDeterministic) {
  // Large enough that a call outside any scheduler samples on a private
  // pool; every worker count must give the same bytes in all four planes.
  const auto m = mol::generate_protein({.target_atoms = 1500, .seed = 3});
  const auto ref = surface::build_surface(m);
  const auto same = [](const auto& a, const auto& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
  };
  for (int workers : {0, 1, 2, 3, 4}) {
    surface::Surface s;
    if (workers == 0) {
      s = surface::build_surface(m);
    } else {
      ws::Scheduler sched(workers);
      sched.run([&] { s = surface::build_surface(m); });
    }
    ASSERT_EQ(s.size(), ref.size()) << "workers=" << workers;
    EXPECT_TRUE(same(s.positions, ref.positions)) << "workers=" << workers;
    EXPECT_TRUE(same(s.normals, ref.normals)) << "workers=" << workers;
    EXPECT_TRUE(same(s.weights, ref.weights)) << "workers=" << workers;
    EXPECT_TRUE(same(s.owner_atom, ref.owner_atom)) << "workers=" << workers;
  }
}

TEST(Determinism, SerialEngineIsBitDeterministic) {
  const auto m = mol::generate_protein({.target_atoms = 350, .seed = 5});
  const auto surf = surface::build_surface(m);
  core::GBEngine engine(m, surf);
  const auto r1 = engine.compute();
  const auto r2 = engine.compute();
  EXPECT_EQ(r1.epol, r2.epol);  // exact bit equality, serial path
  EXPECT_EQ(r1.born, r2.born);
}

TEST(Determinism, BatchedAndScalarEnginesAreBitDeterministic) {
  // The default (widest) vector width must be exactly as reproducible as
  // width 1: repeated serial runs are bitwise identical at both.
  const auto m = mol::generate_protein({.target_atoms = 350, .seed = 5});
  const auto surf = surface::build_surface(m);
  for (simd::VectorIsa isa :
       {simd::VectorIsa::Scalar, simd::VectorIsa::Auto}) {
    core::EngineConfig cfg;
    cfg.approx.vector = {isa};
    core::GBEngine engine(m, surf, cfg);
    const auto r1 = engine.compute();
    const auto r2 = engine.compute();
    EXPECT_EQ(r1.epol, r2.epol);
    EXPECT_EQ(r1.born, r2.born);
  }
}

TEST(Determinism, EpolIsBitwiseAtEveryWorkerCount) {
  // Every Epol entry point folds fixed leaf-block partials in block order,
  // so the energy (and its counters) is identical with no scheduler and at
  // any worker count — including trees with more leaves than blocks,
  // where a block sums several leaves.
  const auto ma = mol::generate_protein({.target_atoms = 5000, .seed = 3});
  const auto mb = mol::generate_protein({.target_atoms = 600, .seed = 4});
  const auto ta = core::AtomsTree::build(ma, {.max_leaf_size = 16});
  const auto tb = core::AtomsTree::build(mb, {.max_leaf_size = 16});
  ASSERT_GT(ta.tree.leaf_ids().size(), 256u);
  const auto radii = [](const core::AtomsTree& t) {
    std::vector<double> born(t.num_atoms());
    for (std::size_t i = 0; i < born.size(); ++i)
      born[i] = 1.3 * t.vdw_radius[i] + 0.05 * static_cast<double>(i % 7);
    return born;
  };
  const auto born_a = radii(ta);
  const auto born_b = radii(tb);
  const double eps = 0.5;
  const auto ctx_a = core::EpolContext::build(ta, born_a, eps);
  const auto ctx_b = core::EpolContext::build(tb, born_b, eps);
  const core::GBParams gb;
  const auto n_a = static_cast<std::uint32_t>(ta.num_atoms());

  struct Energies {
    double leaf = 0.0, atom = 0.0, cross = 0.0;
    perf::WorkCounters work;
  };
  const auto run = [&] {
    Energies e;
    e.leaf = core::approx_epol(ta, ctx_a, born_a, ta.tree.leaf_ids(), eps,
                               false, gb, e.work);
    e.atom = core::approx_epol_atom_based(ta, ctx_a, born_a, 0, n_a / 2, eps,
                                          false, gb, e.work);
    e.cross = core::approx_epol_cross(ta, ctx_a, born_a, tb, ctx_b, born_b,
                                      eps, false, gb, e.work);
    return e;
  };
  const Energies serial = run();
  for (int workers : {1, 2, 4}) {
    ws::Scheduler sched(workers);
    Energies par;
    sched.run([&] { par = run(); });
    EXPECT_EQ(par.leaf, serial.leaf) << workers << " workers";
    EXPECT_EQ(par.atom, serial.atom) << workers << " workers";
    EXPECT_EQ(par.cross, serial.cross) << workers << " workers";
    EXPECT_EQ(par.work.epol_exact, serial.work.epol_exact);
    EXPECT_EQ(par.work.epol_bins, serial.work.epol_bins);
    EXPECT_EQ(par.work.epol_visits, serial.work.epol_visits);
  }
}

TEST(Determinism, EpolForcesAreBitwiseAtEveryWorkerCount) {
  // approx_epol_forces walks the V leaves in the fixed Epol blocks and
  // adds each leaf's forces straight into its own atoms' slots, in walk
  // order: the forces and the Epol counters cannot depend on the
  // schedule. Leaves outnumber the blocks, so a block walks several.
  const auto m = mol::generate_protein({.target_atoms = 3000, .seed = 8});
  const auto surf = surface::build_surface(m);
  core::EngineConfig cfg;
  cfg.atoms_tree_params.max_leaf_size = 8;
  core::GBEngine engine(m, surf, cfg);
  ASSERT_GT(engine.a_leaves().size(), 256u);
  const auto born = engine.compute().born;
  perf::WorkCounters serial_work;
  const auto serial = core::approx_epol_forces(engine, born, serial_work);
  for (int workers : {1, 2, 4}) {
    ws::Scheduler sched(workers);
    perf::WorkCounters work;
    std::vector<geom::Vec3> par;
    sched.run([&] { par = core::approx_epol_forces(engine, born, work); });
    ASSERT_EQ(par.size(), serial.size());
    EXPECT_EQ(std::memcmp(par.data(), serial.data(),
                          serial.size() * sizeof(geom::Vec3)),
              0)
        << workers << " workers";
    EXPECT_EQ(work.epol_exact, serial_work.epol_exact) << workers;
    EXPECT_EQ(work.epol_bins, serial_work.epol_bins) << workers;
    EXPECT_EQ(work.epol_visits, serial_work.epol_visits) << workers;
  }
}

/// Batched path across hybrid rank/thread shapes. Every shape is bitwise
/// reproducible run to run: each rank's Born slots have one writer
/// whatever p is, and the mpp collectives reduce in fixed rank order.
/// Shapes with P > 1 reassociate the cross-rank sums, so they agree with
/// the serial engine to the same tight tolerance the scalar hybrid tests
/// use.
TEST(Determinism, BatchedHybridIsDeterministicAcrossRankShapes) {
  const auto m = mol::generate_protein({.target_atoms = 350, .seed = 5});
  const auto surf = surface::build_surface(m);
  core::GBEngine engine(m, surf);
  const auto serial = engine.compute();

  const std::pair<int, int> shapes[] = {{1, 1}, {2, 2}, {4, 1}};
  for (const auto& [P, p] : shapes) {
    core::HybridConfig hc;
    hc.ranks = P;
    hc.threads_per_rank = p;
    const auto r1 = core::run_hybrid(engine, hc);
    const auto r2 = core::run_hybrid(engine, hc);
    EXPECT_EQ(r1.epol, r2.epol) << "P=" << P << " p=" << p;
    EXPECT_EQ(r1.born, r2.born) << "P=" << P << " p=" << p;
    EXPECT_NEAR(r1.epol, serial.epol, 1e-9 * std::abs(serial.epol))
        << "P=" << P << " p=" << p;
    ASSERT_EQ(r1.born.size(), serial.born.size());
    for (std::size_t i = 0; i < r1.born.size(); ++i)
      EXPECT_NEAR(r1.born[i], serial.born[i],
                  1e-9 * serial.born[i] + 1e-12)
          << "P=" << P << " p=" << p << " atom " << i;
  }
}

void expect_same_born_counters(const perf::WorkCounters& got,
                               const perf::WorkCounters& want,
                               const std::string& what) {
  EXPECT_EQ(got.born_exact, want.born_exact) << what;
  EXPECT_EQ(got.born_approx, want.born_approx) << what;
  EXPECT_EQ(got.born_visits, want.born_visits) << what;
  EXPECT_EQ(got.push_atoms, want.push_atoms) << what;
  EXPECT_EQ(got.push_visits, want.push_visits) << what;
}

TEST(Determinism, OneShotBornIsBitwiseAtEveryWorkerCount) {
  // One-shot compute() / compute_dual() run the evaluating Born walk, in
  // which every node_s slot and atom_s range has one writer: Born radii,
  // Epol and the Born counters cannot depend on the schedule.
  const auto m = mol::generate_protein({.target_atoms = 1500, .seed = 21});
  const auto surf = surface::build_surface(m);
  core::GBEngine engine(m, surf);
  const auto single = engine.compute();
  const auto dual = engine.compute_dual();
  for (int workers : {1, 2, 4}) {
    ws::Scheduler sched(workers);
    for (int run = 0; run < 2; ++run) {
      const std::string at = std::to_string(workers) + " workers, run " +
                             std::to_string(run);
      const auto s = engine.compute(&sched);
      EXPECT_EQ(s.epol, single.epol) << at;
      EXPECT_EQ(s.born, single.born) << at;
      expect_same_born_counters(s.work, single.work, "single, " + at);
      const auto d = engine.compute_dual(&sched);
      EXPECT_EQ(d.epol, dual.epol) << at;
      EXPECT_EQ(d.born, dual.born) << at;
      expect_same_born_counters(d.work, dual.work, "dual, " + at);
    }
  }
}

TEST(BornGradientPass, ForkedPassIsBitwiseAndSumsEveryAncestor) {
  // The far-gradient pass adds Σ g_A·(x − c_A) over the T_A nodes A
  // holding each atom. Big enough that it forks below the root: the
  // result must not depend on the worker count, and must equal the
  // per-atom sum over ancestors up to rounding.
  const auto m = mol::generate_protein({.target_atoms = 9000, .seed = 33});
  const auto ta = core::AtomsTree::build(m);
  const std::size_t n_nodes = ta.tree.nodes().size();
  const std::size_t n_atoms = ta.num_atoms();
  util::Xoshiro256 rng(71);
  std::vector<geom::Vec3> grad(n_nodes);
  for (auto& g : grad)
    g = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
         rng.uniform(-1.0, 1.0)};
  std::vector<double> base(n_atoms);
  for (double& v : base) v = rng.uniform(-1.0, 1.0);

  std::vector<double> serial = base;
  core::detail::add_far_gradients(ta, grad, serial);
  for (int workers : {2, 4}) {
    ws::Scheduler sched(workers);
    std::vector<double> par = base;
    sched.run([&] { core::detail::add_far_gradients(ta, grad, par); });
    EXPECT_EQ(std::memcmp(par.data(), serial.data(),
                          n_atoms * sizeof(double)),
              0)
        << workers << " workers";
  }

  std::vector<double> want = base, scale(n_atoms, 1.0);
  for (std::uint32_t id = 0; id < n_nodes; ++id) {
    const auto& a = ta.tree.node(id);
    for (std::uint32_t i = a.begin; i < a.end; ++i) {
      const geom::Vec3 r = ta.tree.point(i) - a.centroid;
      want[i] += grad[id].dot(r);
      scale[i] += grad[id].norm() * r.norm();
    }
  }
  for (std::size_t i = 0; i < n_atoms; ++i)
    ASSERT_NEAR(serial[i], want[i], 1e-12 * scale[i]) << "atom " << i;
}

TEST(Determinism, HybridIsBitwiseAcrossThreadsPerRank) {
  // At fixed P the threads per rank change nothing: each rank's Born
  // phase is the one-writer walk over its T_Q-leaf segment. (Across P the
  // Allreduce of per-rank partials reassociates, so only P = 1 is bitwise
  // against the single-process engine.)
  const auto m = mol::generate_protein({.target_atoms = 900, .seed = 13});
  const auto surf = surface::build_surface(m);
  core::GBEngine engine(m, surf);

  for (int P : {2, 4}) {
    core::HybridConfig hc;
    hc.ranks = P;
    const auto ref = core::run_hybrid(engine, hc);
    for (int p : {1, 2}) {
      hc.threads_per_rank = p;
      for (int run = 0; run < 2; ++run) {
        const std::string at = "P=" + std::to_string(P) +
                               " p=" + std::to_string(p) + " run " +
                               std::to_string(run);
        const auto r = core::run_hybrid(engine, hc);
        EXPECT_EQ(r.epol, ref.epol) << at;
        EXPECT_EQ(r.born, ref.born) << at;
        for (int k = 0; k < P; ++k)
          expect_same_born_counters(r.work_per_rank[k], ref.work_per_rank[k],
                                    at + " rank " + std::to_string(k));
      }
    }
  }

  core::HybridConfig one;
  one.ranks = 1;
  const auto r1 = core::run_hybrid(engine, one);
  const auto serial = engine.compute();
  EXPECT_EQ(r1.epol, serial.epol);
  EXPECT_EQ(r1.born, serial.born);

  // The fault-free elastic driver: bitwise at p = 2, run to run and
  // against p = 1.
  core::ElasticConfig ec;
  ec.hybrid.ranks = 2;
  const auto e1 = core::run_hybrid_elastic(engine, ec);
  ec.hybrid.threads_per_rank = 2;
  for (int run = 0; run < 2; ++run) {
    const auto e2 = core::run_hybrid_elastic(engine, ec);
    EXPECT_EQ(e2.epol, e1.epol) << "elastic run " << run;
    EXPECT_EQ(e2.born, e1.born) << "elastic run " << run;
  }
}

TEST(Determinism, BatchedHybridWorkCountersMatchScalarHybrid) {
  // The vector width changes arithmetic layout, never traversal
  // decisions: the per-rank interaction counts must be identical at
  // width 1 and at the default (widest) width.
  const auto m = mol::generate_protein({.target_atoms = 300, .seed = 9});
  const auto surf = surface::build_surface(m);
  core::EngineConfig scalar_cfg;
  scalar_cfg.approx.vector = {simd::VectorIsa::Scalar};
  core::GBEngine scalar_engine(m, surf, scalar_cfg);
  core::GBEngine batched_engine(m, surf);
  core::HybridConfig hc;
  hc.ranks = 4;
  const auto rs = core::run_hybrid(scalar_engine, hc);
  const auto rb = core::run_hybrid(batched_engine, hc);
  for (int r = 0; r < hc.ranks; ++r) {
    EXPECT_EQ(rs.work_per_rank[r].born_exact,
              rb.work_per_rank[r].born_exact) << "rank " << r;
    EXPECT_EQ(rs.work_per_rank[r].epol_exact,
              rb.work_per_rank[r].epol_exact) << "rank " << r;
  }
}

TEST(Determinism, SimulatedClusterIsBitDeterministic) {
  const auto m = mol::generate_protein({.target_atoms = 350, .seed = 5});
  const auto surf = surface::build_surface(m);
  core::GBEngine engine(m, surf);
  sim::ClusterConfig cfg;
  cfg.ranks = 7;
  const auto r1 = sim::simulate_cluster(engine, cfg);
  const auto r2 = sim::simulate_cluster(engine, cfg);
  EXPECT_EQ(r1.epol, r2.epol);
  EXPECT_EQ(r1.total_seconds, r2.total_seconds);
  for (int r = 0; r < 7; ++r) {
    EXPECT_EQ(r1.work_per_rank[r].born_exact,
              r2.work_per_rank[r].born_exact);
    EXPECT_EQ(r1.work_per_rank[r].epol_bins, r2.work_per_rank[r].epol_bins);
  }
}

TEST(Determinism, JitterIsSeededNotRandom) {
  const auto m = mol::generate_protein({.target_atoms = 200, .seed = 6});
  const auto surf = surface::build_surface(m);
  core::GBEngine engine(m, surf);
  sim::ClusterConfig cfg;
  cfg.ranks = 4;
  const auto base = sim::simulate_cluster(engine, cfg);
  EXPECT_EQ(sim::jittered_total_seconds(base, cfg, 42),
            sim::jittered_total_seconds(base, cfg, 42));
  EXPECT_NE(sim::jittered_total_seconds(base, cfg, 42),
            sim::jittered_total_seconds(base, cfg, 43));
}

TEST(Determinism, PdbTextIsByteStable) {
  const auto m = mol::generate_protein({.target_atoms = 120, .seed = 7});
  std::ostringstream a, b;
  mol::write_pdb(m, a);
  mol::write_pdb(m, b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(Determinism, ChargeAssignmentIsPure) {
  // protein_partial_charge must be a pure function of its arguments.
  EXPECT_EQ(mol::protein_partial_charge("CA", "ALA"),
            mol::protein_partial_charge("CA", "ALA"));
  EXPECT_EQ(mol::protein_partial_charge("NZ", "LYS"),
            mol::protein_partial_charge("NZ", "LYS"));
}

TEST(Determinism, GeneratorsCoverAllTwentyResidueFamilies) {
  // A large molecule should sample every template (probabilistic but with
  // margin: 19 templates, ~600 residues).
  const auto m = mol::generate_protein({.target_atoms = 12000, .seed = 8});
  ASSERT_TRUE(m.has_labels());
  std::set<std::string> seen;
  for (const auto& l : m.labels()) seen.insert(l.residue_name);
  EXPECT_GE(seen.size(), 15u);
  // Spot-check the newer templates appear.
  EXPECT_TRUE(seen.count("TRP"));
  EXPECT_TRUE(seen.count("ARG"));
  EXPECT_TRUE(seen.count("VAL"));
}
