// End-to-end integration tests: the full pipeline from a benchmark
// molecule through surface, engines, hybrid runtime, simulation harness
// and baselines — cross-checking that every path agrees on the physics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "octgb/octgb.hpp"

using namespace octgb;

namespace {

/// One shared mid-size problem (built once for the whole suite).
struct Pipeline {
  mol::Molecule molecule = mol::make_benchmark_molecule("1NSN_l_b");  // ~1.3k
  surface::Surface surf = surface::build_surface(molecule);
  core::GBEngine engine{molecule, surf};
  std::vector<double> naive_born = core::naive_born_radii(molecule, surf);
  double naive_epol = core::naive_epol(molecule, naive_born);
};

Pipeline& pipeline() {
  static Pipeline p;
  return p;
}

}  // namespace

TEST(Integration, EveryExecutionPathAgreesOnEnergy) {
  Pipeline& p = pipeline();
  const double reference = p.engine.compute().epol;

  // Serial engine within the paper's error budget of the exact value.
  EXPECT_LT(std::abs(reference - p.naive_epol) / std::abs(p.naive_epol),
            0.01);

  // OCT_CILK (scheduler).
  {
    ws::Scheduler sched(4);
    const double e = p.engine.compute(&sched).epol;
    EXPECT_NEAR(e, reference, 1e-8 * std::abs(reference));
  }
  // OCT_MPI and OCT_MPI+CILK on the real runtime.
  for (auto [ranks, threads] : {std::pair{3, 1}, std::pair{2, 2}}) {
    core::HybridConfig cfg;
    cfg.ranks = ranks;
    cfg.threads_per_rank = threads;
    const double e = core::run_hybrid(p.engine, cfg).epol;
    EXPECT_NEAR(e, reference, 1e-8 * std::abs(reference))
        << "P=" << ranks << " p=" << threads;
  }
  // Simulation harness.
  {
    sim::ClusterConfig cfg;
    cfg.ranks = 6;
    const double e = sim::simulate_cluster(p.engine, cfg).epol;
    EXPECT_NEAR(e, reference, 1e-9 * std::abs(reference));
  }
}

TEST(Integration, BaselinesLandInTheSamePhysicalRegime) {
  Pipeline& p = pipeline();
  for (const auto& spec : baselines::package_registry()) {
    const auto r = baselines::run_package(spec, p.molecule);
    ASSERT_FALSE(r.out_of_memory) << spec.name;
    EXPECT_LT(r.epol, 0.0) << spec.name;
    // Within a factor of ~3 of the exact energy — different GB flavors,
    // same molecule (Fig. 9's qualitative agreement).
    EXPECT_GT(std::abs(r.epol), std::abs(p.naive_epol) / 3.0) << spec.name;
    EXPECT_LT(std::abs(r.epol), std::abs(p.naive_epol) * 3.0) << spec.name;
  }
}

TEST(Integration, BornRadiiPhysicallyOrdered) {
  // Every engine's Born radii must respect basic physics: bounded below
  // by the vdW radius, bounded above by the molecule's extent.
  Pipeline& p = pipeline();
  const auto result = p.engine.compute();
  const double diameter = p.molecule.bounds().extent().norm() + 10.0;
  for (std::size_t i = 0; i < result.born.size(); ++i) {
    EXPECT_GE(result.born[i], p.molecule.atom(i).radius - 1e-9);
    EXPECT_LE(result.born[i], std::max(diameter, core::kMaxBornRadius));
  }
}

TEST(Integration, TransformedMoleculeSameEnergy) {
  // Rigid motion cannot change the self-energy of a molecule: rebuild
  // the pipeline after a rotation+translation and compare.
  Pipeline& p = pipeline();
  mol::Molecule moved = p.molecule;
  moved.transform({geom::Mat3::euler_zyx(0.7, -0.2, 1.1), {25, -40, 13}});
  const auto surf = surface::build_surface(moved);
  core::GBEngine engine(moved, surf);
  const double e_moved = engine.compute().epol;
  const double e_orig = p.engine.compute().epol;
  // Surface sampling is rotation-variant (icosphere orientation is
  // fixed), so allow the approximation band rather than exact equality.
  EXPECT_NEAR(e_moved, e_orig, 0.01 * std::abs(e_orig));
}

TEST(Integration, EndToEndPdbFileWorkflow) {
  Pipeline& p = pipeline();
  const std::string path = "integration_roundtrip.pdb";
  ASSERT_TRUE(mol::write_pdb_file(p.molecule, path));
  const mol::Molecule parsed = mol::read_pdb_file(path);
  ASSERT_EQ(parsed.size(), p.molecule.size());
  const auto surf = surface::build_surface(parsed);
  core::GBEngine engine(parsed, surf);
  const double e = engine.compute().epol;
  const double reference = p.engine.compute().epol;
  EXPECT_NEAR(e, reference, 0.005 * std::abs(reference));
  std::remove(path.c_str());
}

TEST(Integration, ZdockSweepSmallMoleculesUnderErrorBudget) {
  // Property sweep across the small end of the benchmark registry:
  // default parameters must keep every molecule under the 1 % budget.
  for (const auto& entry : mol::zdock_set().subspan(0, 8)) {
    const auto molecule = mol::make_benchmark_molecule(entry.name);
    const auto surf = surface::build_surface(molecule);
    const auto naive_born = core::naive_born_radii(molecule, surf);
    const double naive_e = core::naive_epol(molecule, naive_born);
    core::GBEngine engine(molecule, surf);
    const double e = engine.compute().epol;
    EXPECT_LT(std::abs(e - naive_e) / std::abs(naive_e), 0.01)
        << entry.name;
  }
}

TEST(ZdockAccuracy, QuickSelectionAgainstNaiveReference) {
  // The ZDock quick selection (every 4th registry entry plus the
  // largest: 12 molecules, 436 to 16,301 atoms), each in its generated
  // orientation with the default surface, evaluated one-shot against the
  // naive Born radii and Epol. Every molecule must stay under the 1 %
  // Epol budget, and the worst one under 2.57e-3, where the first-order
  // Born far term at opening factor (1 + 2/ε)^0.9 left 1MAH_r_b (the
  // second-order term at (1 + 2/ε)^0.72 leaves 2.20e-3, 1BGX_l_b; the
  // worst error is recorded as the test property worst_epol_rel_err).
  // On the two largest, the counts of radii more than 1 % off and of
  // radii clamped to kMaxBornRadius where the naive radius is not must
  // not exceed what the second-order term leaves (182 / 0 and 141 / 3;
  // the first-order term left 729 / 4 and 395 / 3).
  struct Limit {
    const char* name;
    std::size_t off, clamped;
  };
  const Limit limits[] = {{"1MAH_r_b", 182, 0}, {"1BGX_l_b", 141, 3}};
  const auto all = mol::zdock_set();
  std::vector<mol::BenchmarkEntry> set;
  for (std::size_t i = 0; i < all.size(); i += 4) set.push_back(all[i]);
  set.push_back(all.back());
  ASSERT_EQ(set.size(), 12u);

  // The naive radii (the O(M·N) part) split atoms across the workers;
  // the naive energies (O(M²), serial each) run one molecule per worker.
  struct Case {
    mol::Molecule molecule;
    std::vector<double> naive_born, born;
    double naive_e = 0.0, epol = 0.0;
  };
  std::vector<Case> cases;
  ws::Scheduler sched(4);
  for (const auto& entry : set) {
    Case c{mol::make_benchmark_molecule(entry.name), {}, {}};
    surface::Surface surf;
    sched.run([&] {
      surf = surface::build_surface(c.molecule);
      c.naive_born = core::naive_born_radii(c.molecule, surf);
    });
    core::GBEngine engine(c.molecule, surf);
    auto r = engine.compute(&sched);
    c.born = std::move(r.born);
    c.epol = r.epol;
    cases.push_back(std::move(c));
  }
  sched.run([&] {
    ws::Scheduler::parallel_for(
        0, static_cast<std::int64_t>(cases.size()), 1,
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t k = lo; k < hi; ++k)
            cases[k].naive_e =
                core::naive_epol(cases[k].molecule, cases[k].naive_born);
        });
  });

  double worst = 0.0;
  for (std::size_t k = 0; k < set.size(); ++k) {
    const Case& c = cases[k];
    const char* name = set[k].name;
    const double err = std::abs(c.epol - c.naive_e) / std::abs(c.naive_e);
    EXPECT_LT(err, 0.01) << name;
    worst = std::max(worst, err);
    std::size_t off = 0, clamped = 0;
    for (std::size_t i = 0; i < c.naive_born.size(); ++i) {
      if (std::abs(c.born[i] - c.naive_born[i]) > 0.01 * c.naive_born[i])
        ++off;
      if (c.born[i] == core::kMaxBornRadius &&
          c.naive_born[i] != core::kMaxBornRadius)
        ++clamped;
    }
    for (const Limit& l : limits) {
      if (std::string_view(name) != l.name) continue;
      EXPECT_LE(off, l.off) << name;
      EXPECT_LE(clamped, l.clamped) << name;
    }
  }
  std::ostringstream worst_text;
  worst_text << std::scientific << std::setprecision(4) << worst;
  ::testing::Test::RecordProperty("worst_epol_rel_err", worst_text.str());
  EXPECT_LE(worst, 2.57e-3);
}

TEST(Integration, EmptyAndDegenerateInputsFailLoudly) {
  mol::Molecule empty;
  surface::Surface no_surface;
  EXPECT_THROW(core::GBEngine(empty, pipeline().surf, {}),
               util::CheckError);
  EXPECT_THROW(core::GBEngine(pipeline().molecule, no_surface, {}),
               util::CheckError);
}

TEST(Integration, SingleAtomMoleculeFullPipeline) {
  mol::Molecule one("ion");
  one.add_atom({{0, 0, 0}, 2.0, -1.0, mol::Element::O});
  const auto surf = surface::build_surface(one, {.subdivision = 2});
  core::GBEngine engine(one, surf);
  const auto r = engine.compute();
  // Born equation: E = −τ/2 · q²/R.
  const core::GBParams gb;
  EXPECT_NEAR(r.born[0], 2.0, 1e-6);
  EXPECT_NEAR(r.epol, -0.5 * gb.tau() / 2.0, 1e-6);
}
