// Tests for the core GB kernels: naive references, octree approximation,
// fast math, Epol binning, trees, work division.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <numbers>
#include <sstream>
#include <string>

#include "octgb/core/born.hpp"
#include "octgb/core/engine.hpp"
#include "octgb/core/epol.hpp"
#include "octgb/core/fastmath.hpp"
#include "octgb/core/forces.hpp"
#include "octgb/core/gb_params.hpp"
#include "octgb/core/naive.hpp"
#include "octgb/core/workdiv.hpp"
#include "octgb/mol/generate.hpp"
#include "octgb/mol/zdock.hpp"
#include "octgb/perf/stats.hpp"
#include "octgb/simd/dispatch.hpp"
#include "octgb/surface/surface.hpp"
#include "octgb/util/check.hpp"
#include "octgb/util/rng.hpp"

// The far-field order tests call the scalar kernel table directly.
#include "../src/core/near_field.hpp"

using namespace octgb;
using core::EngineConfig;
using core::GBEngine;
using core::GBParams;

namespace {

/// Shared fixture data: a small synthetic protein + surface.
struct Problem {
  mol::Molecule molecule;
  surface::Surface surf;
  explicit Problem(std::size_t atoms, std::uint64_t seed = 21)
      : molecule(mol::generate_protein({.target_atoms = atoms, .seed = seed})),
        surf(surface::build_surface(molecule, {.subdivision = 1})) {}
};

}  // namespace

// ---- fast math -------------------------------------------------------------

TEST(FastMath, RsqrtAccuracy) {
  for (double x : {1e-6, 0.01, 1.0, 2.0, 1234.5, 1e8}) {
    EXPECT_NEAR(core::fast_rsqrt(x) * std::sqrt(x), 1.0, 5e-4) << x;
  }
}

TEST(FastMath, ExpAccuracyWithinSchraudolphBand) {
  for (double x : {-30.0, -5.0, -1.0, -0.25, 0.0, 0.5, 2.0, 10.0}) {
    const double rel = core::fast_exp(x) / std::exp(x);
    EXPECT_GT(rel, 0.94) << x;
    EXPECT_LT(rel, 1.06) << x;
  }
}

TEST(FastMath, InvCbrtAccuracy) {
  // Three Newton iterations from the bit-trick guess: ~2e-8 relative.
  for (double x : {1e-6, 0.5, 1.0, 8.0, 125.0, 3e7}) {
    EXPECT_NEAR(core::fast_inv_cbrt(x) * std::cbrt(x), 1.0, 1e-6) << x;
  }
}

// ---- GB parameters -----------------------------------------------------------

TEST(GBParams, TauMatchesDefinition) {
  GBParams gb;
  EXPECT_NEAR(gb.tau(), core::kCoulomb * (1.0 - 1.0 / 80.0), 1e-12);
  gb.eps_solv = 2.0;
  EXPECT_NEAR(gb.tau(), core::kCoulomb * 0.5, 1e-12);
}

TEST(GBParams, FGbLimits) {
  // r = 0: f_GB = sqrt(Ri Rj); r >> R: f_GB → r.
  EXPECT_NEAR(core::f_gb(0.0, 4.0), 2.0, 1e-12);
  EXPECT_NEAR(core::f_gb(1e6, 4.0), 1000.0, 1e-3);
}

TEST(GBParams, BornFarFieldCriterion) {
  const double pow6 = std::pow(1.9, 1.0 / 6.0);
  // Touching nodes are never far.
  EXPECT_FALSE(core::born_far_enough(2.0, 1.0, 1.0, pow6));
  // Very distant nodes are far.
  EXPECT_TRUE(core::born_far_enough(100.0, 1.0, 1.0, pow6));
  // The threshold distance from §II: d* = (ra+rq)(k+1)/(k−1), k = (1+ε)^⅙.
  const double dstar = 2.0 * (pow6 + 1.0) / (pow6 - 1.0);
  EXPECT_FALSE(core::born_far_enough(dstar * 0.999, 1.0, 1.0, pow6));
  EXPECT_TRUE(core::born_far_enough(dstar * 1.001, 1.0, 1.0, pow6));
  // The default threshold's d* is the second-order factor (1 + 2/ε)^0.72
  // times ra + rq, nearer than the first-order term's (1 + 2/ε)^0.9.
  const double k = core::born_threshold(0.9, false);
  const double dk = 2.0 * (k + 1.0) / (k - 1.0);
  EXPECT_NEAR(dk, 2.0 * std::pow(1.0 + 2.0 / 0.9, 0.72), 1e-12);
  EXPECT_LT(dk, 2.0 * std::pow(1.0 + 2.0 / 0.9, 0.9));
  EXPECT_FALSE(core::born_far_enough(dk * 0.999, 1.0, 1.0, k));
  EXPECT_TRUE(core::born_far_enough(dk * 1.001, 1.0, 1.0, k));
}

TEST(GBParams, BornThresholdOpensAtSecondOrderFactor) {
  // Non-strict: nodes open at d/s = (1 + 2/ε)^0.72 (2.32 at ε = 0.9),
  // i.e. k = (f+1)/(f−1) ≈ 2.51. Strict: the paper's (1+ε)^(1/6).
  const double f = std::pow(1.0 + 2.0 / 0.9, 0.72);
  const double k = core::born_threshold(0.9, false);
  EXPECT_EQ(k, (f + 1.0) / (f - 1.0));
  EXPECT_NEAR(k, 2.5128, 5e-4);
  EXPECT_EQ(core::born_threshold(0.9, true), std::pow(1.9, 1.0 / 6.0));
  // The factor is the far boundary for s = ra + rq = 2.
  EXPECT_FALSE(core::born_far_enough(2.0 * f * 0.999, 1.0, 1.0, k));
  EXPECT_TRUE(core::born_far_enough(2.0 * f * 1.001, 1.0, 1.0, k));
}

TEST(GBParams, EpolFarFieldCriterion) {
  // Opening factor sqrt(1 + 2/ε), the paper's: 1.80 at ε = 0.9.
  const double k = core::epol_threshold(0.9);
  EXPECT_EQ(k, std::sqrt(1.0 + 2.0 / 0.9));
  EXPECT_NEAR(k, 1.795, 0.001);
  EXPECT_FALSE(core::epol_far_enough(3.0, 1.0, 1.0, k));
  const double dstar = 2.0 * std::sqrt(1.0 + 2.0 / 0.9);
  EXPECT_FALSE(core::epol_far_enough(dstar * 0.999, 1.0, 1.0, k));
  EXPECT_TRUE(core::epol_far_enough(dstar * 1.001, 1.0, 1.0, k));
}

// ---- naive references ---------------------------------------------------------

TEST(NaiveBorn, IsolatedSphereGivesExactRadius) {
  mol::Molecule m;
  m.add_atom({{0, 0, 0}, 2.0, 1.0, mol::Element::C});
  const auto surf = surface::build_surface(m, {.subdivision = 2});
  const auto born = core::naive_born_radii(m, surf);
  ASSERT_EQ(born.size(), 1u);
  EXPECT_NEAR(born[0], 2.0, 1e-9);
}

TEST(NaiveBorn, BuriedAtomGetsLargerRadiusThanSurfaceAtom) {
  // A line of spheres: the middle atom is more buried, so its Born radius
  // must exceed the end atoms'.
  mol::Molecule m;
  for (int i = -2; i <= 2; ++i)
    m.add_atom({{i * 2.0, 0, 0}, 1.7, 0.1, mol::Element::C});
  const auto surf = surface::build_surface(m, {.subdivision = 2});
  const auto born = core::naive_born_radii(m, surf);
  EXPECT_GT(born[2], born[0]);
  EXPECT_GT(born[2], born[4]);
  EXPECT_NEAR(born[0], born[4], 1e-6);  // symmetric ends
}

TEST(NaiveBorn, RadiusClampedBelowByVdw) {
  const Problem p(200);
  const auto born = core::naive_born_radii(p.molecule, p.surf);
  for (std::size_t i = 0; i < born.size(); ++i)
    EXPECT_GE(born[i], p.molecule.atom(i).radius - 1e-12);
}

TEST(NaiveEpol, SingleAtomSelfEnergyClosedForm) {
  // Epol of one atom = −τ/2 · q²/R (the Born equation itself).
  mol::Molecule m;
  m.add_atom({{0, 0, 0}, 2.0, -1.0, mol::Element::O});
  const std::vector<double> born = {2.0};
  const GBParams gb;
  const double e = core::naive_epol(m, born, gb);
  EXPECT_NEAR(e, -0.5 * gb.tau() * 1.0 / 2.0, 1e-12);
}

TEST(NaiveEpol, TwoAtomClosedForm) {
  mol::Molecule m;
  m.add_atom({{0, 0, 0}, 1.5, 0.4, mol::Element::C});
  m.add_atom({{3, 0, 0}, 2.0, -0.7, mol::Element::O});
  const std::vector<double> born = {1.6, 2.1};
  const GBParams gb;
  const double cross = 2.0 * 0.4 * -0.7 / core::f_gb(9.0, 1.6 * 2.1);
  const double self = 0.16 / 1.6 + 0.49 / 2.1;
  EXPECT_NEAR(core::naive_epol(m, born, gb),
              -0.5 * gb.tau() * (self + cross), 1e-12);
}

TEST(NaiveEpol, IsNegativeForRealMolecules) {
  const Problem p(300);
  const auto born = core::naive_born_radii(p.molecule, p.surf);
  EXPECT_LT(core::naive_epol(p.molecule, born), 0.0);
}

TEST(NaiveEpol, BitwiseIdenticalAtAnyWorkerCount) {
  // The batched rows run in parallel under a scheduler, each into its own
  // slot, and are added in row order: the bits never depend on the
  // schedule.
  const Problem p(300);
  const auto born = core::naive_born_radii(p.molecule, p.surf);
  perf::WorkCounters serial_wc;
  const double serial = core::naive_epol(p.molecule, born, {}, &serial_wc);
  for (const unsigned workers : {1u, 2u, 4u}) {
    ws::Scheduler sched(workers);
    perf::WorkCounters wc;
    double parallel = 0.0;
    sched.run([&] { parallel = core::naive_epol(p.molecule, born, {}, &wc); });
    EXPECT_EQ(parallel, serial) << workers << " workers";
    EXPECT_EQ(wc.epol_exact, serial_wc.epol_exact);
  }
}

TEST(FinalizeBornRadius, ClampsAndInverts) {
  // S = 4π/R³ ⇒ R.
  const double s = 4.0 * std::numbers::pi / 8.0;  // R = 2
  EXPECT_NEAR(core::finalize_born_radius(s, 1.0), 2.0, 1e-12);
  // vdW clamp from below.
  EXPECT_DOUBLE_EQ(core::finalize_born_radius(s, 3.0), 3.0);
  // Non-positive integral → max clamp.
  EXPECT_DOUBLE_EQ(core::finalize_born_radius(-1.0, 1.5),
                   core::kMaxBornRadius);
}

// ---- octree Born radii ----------------------------------------------------------

TEST(OctreeBorn, MatchesNaiveTightlyForSmallEps) {
  const Problem p(400);
  const auto naive = core::naive_born_radii(p.molecule, p.surf);
  EngineConfig cfg;
  cfg.approx.eps_born = 0.05;
  GBEngine engine(p.molecule, p.surf, cfg);
  const auto result = engine.compute();
  ASSERT_EQ(result.born.size(), naive.size());
  for (std::size_t i = 0; i < naive.size(); ++i)
    EXPECT_NEAR(result.born[i], naive[i], 0.02 * naive[i]) << "atom " << i;
}

class BornEpsSweep : public ::testing::TestWithParam<double> {};

TEST_P(BornEpsSweep, RadiiStayWithinApproximationBand) {
  const double eps = GetParam();
  const Problem p(350);
  const auto naive = core::naive_born_radii(p.molecule, p.surf);
  EngineConfig cfg;
  cfg.approx.eps_born = eps;
  GBEngine engine(p.molecule, p.surf, cfg);
  const auto result = engine.compute();
  double worst = 0;
  for (std::size_t i = 0; i < naive.size(); ++i)
    worst = std::max(worst, std::abs(result.born[i] - naive[i]) / naive[i]);
  // The admissibility condition bounds the pointwise 1/r⁶ error by ε;
  // cancellation keeps the realized radius error far below it.
  EXPECT_LT(worst, 0.05 + 0.1 * eps) << "eps=" << eps;
}

INSTANTIATE_TEST_SUITE_P(Eps, BornEpsSweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.9, 2.0));

TEST(OctreeBorn, ApproxWorkDropsAsEpsGrows) {
  const Problem p(800);
  std::uint64_t prev_exact = ~0ull;
  for (double eps : {0.1, 0.5, 0.9}) {
    EngineConfig cfg;
    cfg.approx.eps_born = eps;
    GBEngine engine(p.molecule, p.surf, cfg);
    const auto result = engine.compute();
    EXPECT_LT(result.work.born_exact, prev_exact) << "eps=" << eps;
    prev_exact = result.work.born_exact;
    EXPECT_GT(result.work.born_approx, 0u);
  }
}

TEST(OctreeBorn, PushSegmentsComposeToFullArray) {
  // Splitting PUSH-INTEGRALS across segments must equal one full pass.
  const Problem p(300);
  GBEngine engine(p.molecule, p.surf);
  const auto n_nodes = engine.num_ta_nodes();
  const auto n_atoms = engine.num_atoms();
  std::vector<double> node_s(n_nodes, 0.0), atom_s(n_atoms, 0.0);
  perf::WorkCounters wc;
  engine.phase_integrals({0, (std::uint32_t)engine.q_leaves().size()},
                         node_s, atom_s, wc);

  std::vector<double> full(n_atoms, 0.0), pieces(n_atoms, 0.0);
  engine.phase_push({0, (std::uint32_t)n_atoms}, node_s, atom_s, full, wc);
  for (int part = 0; part < 5; ++part) {
    const auto seg = core::even_segment(n_atoms, 5, part);
    engine.phase_push(seg, node_s, atom_s, pieces, wc);
  }
  for (std::size_t i = 0; i < n_atoms; ++i)
    EXPECT_DOUBLE_EQ(pieces[i], full[i]);
}

TEST(OctreeBorn, IntegralSegmentsComposeToFullArrays) {
  // Splitting APPROX-INTEGRALS across T_Q-leaf segments must sum to the
  // full-run arrays (this is exactly what the Allreduce asserts).
  const Problem p(300);
  GBEngine engine(p.molecule, p.surf);
  const auto n_nodes = engine.num_ta_nodes();
  const auto n_atoms = engine.num_atoms();
  const auto n_leaves = (std::uint32_t)engine.q_leaves().size();
  perf::WorkCounters wc;

  std::vector<double> node_full(n_nodes, 0.0), atom_full(n_atoms, 0.0);
  engine.phase_integrals({0, n_leaves}, node_full, atom_full, wc);

  std::vector<double> node_sum(n_nodes, 0.0), atom_sum(n_atoms, 0.0);
  for (int part = 0; part < 4; ++part) {
    const auto seg = core::even_segment(n_leaves, 4, part);
    engine.phase_integrals(seg, node_sum, atom_sum, wc);
  }
  for (std::size_t i = 0; i < n_nodes; ++i)
    EXPECT_NEAR(node_sum[i], node_full[i],
                1e-12 * (1.0 + std::abs(node_full[i])));
  for (std::size_t i = 0; i < n_atoms; ++i)
    EXPECT_NEAR(atom_sum[i], atom_full[i],
                1e-12 * (1.0 + std::abs(atom_full[i])));
}

// ---- octree Epol -----------------------------------------------------------------

TEST(OctreeEpol, MatchesNaiveTightlyForSmallEps) {
  const Problem p(400);
  const auto naive_born = core::naive_born_radii(p.molecule, p.surf);
  EngineConfig cfg;
  cfg.approx.eps_born = 0.05;
  cfg.approx.eps_epol = 0.05;
  GBEngine engine(p.molecule, p.surf, cfg);
  const auto result = engine.compute();
  const double naive_e = core::naive_epol(p.molecule, naive_born);
  EXPECT_NEAR(result.epol, naive_e, 0.01 * std::abs(naive_e));
}

TEST(OctreeEpol, PaperParametersKeepErrorUnderOnePercent) {
  // The paper's headline accuracy claim: ε_R = ε_E = 0.9 with < 1 % error
  // versus the naive algorithm (§V-F).
  const Problem p(600);
  const auto naive_born = core::naive_born_radii(p.molecule, p.surf);
  const double naive_e = core::naive_epol(p.molecule, naive_born);
  GBEngine engine(p.molecule, p.surf);  // defaults: 0.9 / 0.9
  const auto result = engine.compute();
  EXPECT_LT(std::abs(result.epol - naive_e) / std::abs(naive_e), 0.01)
      << "octree " << result.epol << " vs naive " << naive_e;
}

class EpolEpsSweep : public ::testing::TestWithParam<double> {};

TEST_P(EpolEpsSweep, EnergyWithinBandAndWorkMonotone) {
  const double eps = GetParam();
  const Problem p(500);
  const auto naive_born = core::naive_born_radii(p.molecule, p.surf);
  const double naive_e = core::naive_epol(p.molecule, naive_born);
  EngineConfig cfg;
  cfg.approx.eps_born = 0.3;
  cfg.approx.eps_epol = eps;
  GBEngine engine(p.molecule, p.surf, cfg);
  const auto result = engine.compute();
  EXPECT_LT(std::abs(result.epol - naive_e) / std::abs(naive_e),
            0.02 + 0.05 * eps)
      << "eps=" << eps;
}

INSTANTIATE_TEST_SUITE_P(Eps, EpolEpsSweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));

TEST(EpolContext, BinsPartitionChargeExactly) {
  const Problem p(350);
  GBEngine engine(p.molecule, p.surf);
  const auto result = engine.compute();
  // Rebuild the context from tree-order radii and check the root's bins
  // sum to the molecule's net charge.
  const auto& ta = engine.atoms_tree();
  std::vector<double> born_tree(engine.num_atoms());
  const auto idx = ta.tree.point_index();
  for (std::size_t pos = 0; pos < idx.size(); ++pos)
    born_tree[pos] = result.born[idx[pos]];
  const auto ctx = engine.build_epol_context(born_tree);
  double root_sum = 0;
  for (int k = 0; k < ctx.nbins; ++k) root_sum += ctx.bins[k];
  EXPECT_NEAR(root_sum, p.molecule.net_charge(), 1e-9);
  // Every radius must land in a bin whose geometric range contains it
  // (rep[k] is the mid-bin representative; edges are rep[k]·(1+ε)^±½).
  const double half = std::exp(0.5 * ctx.log1pe);
  for (std::size_t pos = 0; pos < born_tree.size(); ++pos) {
    const int k = ctx.bin_of(born_tree[pos]);
    ASSERT_GE(k, 0);
    ASSERT_LT(k, ctx.nbins);
    EXPECT_GE(born_tree[pos], ctx.rep[k] / half * (1.0 - 1e-9));
    EXPECT_LE(born_tree[pos], ctx.rep[k] * half * (1.0 + 1e-9));
  }
}

TEST(EpolContext, BinCountGrowsAsEpsShrinks) {
  const Problem p(350);
  GBEngine engine(p.molecule, p.surf);
  std::vector<double> born_tree(engine.num_atoms(), 0.0);
  // Synthetic radii spanning a decade.
  for (std::size_t i = 0; i < born_tree.size(); ++i)
    born_tree[i] = 1.0 + 9.0 * (double(i) / born_tree.size());
  const auto c_small = core::EpolContext::build(engine.atoms_tree(),
                                                born_tree, 0.1);
  const auto c_large = core::EpolContext::build(engine.atoms_tree(),
                                                born_tree, 0.9);
  EXPECT_GT(c_small.nbins, 2 * c_large.nbins);
}

TEST(EpolContext, RejectsBinCountBeyondInt16Index) {
  // bin_lo/bin_hi are int16_t: radii 2.00/2.02 at ε = 1e-7 need 99,504
  // bins, which used to wrap bin_lo[0] to −31,569 and send the far field
  // reading before each node's table. The build must refuse instead.
  const auto m = mol::generate_protein({.target_atoms = 200, .seed = 3});
  const auto ta = core::AtomsTree::build(m);
  std::vector<double> born(ta.num_atoms());
  for (std::size_t i = 0; i < born.size(); ++i) born[i] = i % 2 ? 2.02 : 2.00;
  EXPECT_THROW(core::EpolContext::build(ta, born, 1e-7), util::CheckError);
  // Equal radii at a tiny ε used to spin ~1e-16/ε times growing the bin
  // count until exp(nbins·log1p(ε)) left 1.0; it is refused the same way.
  std::fill(born.begin(), born.end(), 2.0);
  EXPECT_THROW(core::EpolContext::build(ta, born, 1e-30), util::CheckError);
  // A wide but representable range still builds.
  for (std::size_t i = 0; i < born.size(); ++i) born[i] = i % 2 ? 2.02 : 2.00;
  EXPECT_LE(core::EpolContext::build(ta, born, 1e-6).nbins, INT16_MAX);
}

namespace {

/// Synthetic tree-order Born radii spread over a few bins.
std::vector<double> synthetic_born(const core::AtomsTree& t) {
  std::vector<double> born(t.num_atoms());
  for (std::size_t i = 0; i < born.size(); ++i)
    born[i] = 1.3 * t.vdw_radius[i] + 0.05 * static_cast<double>(i % 7);
  return born;
}

}  // namespace

TEST(EpolContext, RejectsNonFiniteOrNonPositiveRadii) {
  // A NaN radius used to return epol = nan with no error, and 0, −1 or
  // +inf threw a misleading "eps_epol too small". Every entry point that
  // builds a context names the tree index and the value instead. Tree
  // position 0 is probed on its own: the min/max scan seeds from it, so a
  // NaN there poisons the scan differently from a NaN further in.
  const Problem p(600);
  const GBEngine engine(p.molecule, p.surf);
  const auto born = engine.compute().born;
  const auto idx = engine.atoms_tree().tree.point_index();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::size_t pos : {std::size_t{0}, idx.size() / 2}) {
    for (const double bad : {nan, 0.0, -1.0, inf}) {
      std::vector<double> radii = born;
      radii[idx[pos]] = bad;
      std::vector<double> radii_tree(radii.size());
      for (std::size_t k = 0; k < idx.size(); ++k)
        radii_tree[k] = radii[idx[k]];
      std::ostringstream want;
      want << "Born radius at tree index " << pos << " is " << bad;
      const auto expect_named = [&](const auto& call, const char* what) {
        try {
          call();
          ADD_FAILURE() << what << " accepted " << bad << " at " << pos;
        } catch (const util::CheckError& e) {
          EXPECT_NE(std::string(e.what()).find(want.str()),
                    std::string::npos)
              << what << ": " << e.what();
        }
      };
      perf::WorkCounters wc;
      expect_named([&] { engine.build_epol_context(radii_tree); },
                   "build_epol_context");
      expect_named([&] { core::approx_epol_forces(engine, radii, wc); },
                   "approx_epol_forces");
    }
  }
}

TEST(EpolContext, MomentsMatchDirectSums) {
  // The bottom-up pass adds children and moves each child's P, U and Θ
  // to the parent centroid; every node's planes must equal the direct
  // per-bin sums over its own atoms.
  using M = core::BinMoments;
  const Problem p(350);
  const auto ta = core::AtomsTree::build(p.molecule);
  std::vector<double> born(ta.num_atoms());
  for (std::size_t i = 0; i < born.size(); ++i)
    born[i] = 1.2 + 0.37 * static_cast<double>(i % 11);
  const auto ctx = core::EpolContext::build(ta, born, 0.5);
  const auto nodes = ta.tree.nodes();
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    const auto& n = nodes[id];
    const std::size_t nb = static_cast<std::size_t>(ctx.nbins);
    std::vector<std::array<double, M::kPlanes>> want(nb);
    for (std::uint32_t a = n.begin; a < n.end; ++a) {
      auto& w = want[static_cast<std::size_t>(ctx.bin_of(born[a]))];
      const double q = ta.charge[a], r = born[a];
      const geom::Vec3 d = ta.tree.point(a) - n.centroid;
      w[M::Q] += q;
      w[M::S] += q * r;
      w[M::T] += q * r * r;
      const double dc[3] = {d.x, d.y, d.z};
      for (int c = 0; c < 3; ++c) {
        w[M::Px + c] += q * dc[c];
        w[M::Ux + c] += q * r * dc[c];
        w[M::Txx + c] += q * dc[c] * dc[c];
      }
      w[M::Txy] += q * d.x * d.y;
      w[M::Txz] += q * d.x * d.z;
      w[M::Tyz] += q * d.y * d.z;
    }
    // The stored range is exactly the bins the node's atoms fall in.
    const int lo = ctx.bin_lo[id], hi = ctx.bin_hi[id];
    int want_lo = ctx.nbins, want_hi = -1;
    for (std::uint32_t a = n.begin; a < n.end; ++a) {
      want_lo = std::min(want_lo, ctx.bin_of(born[a]));
      want_hi = std::max(want_hi, ctx.bin_of(born[a]));
    }
    EXPECT_EQ(lo, want_lo) << "node " << id;
    EXPECT_EQ(hi, want_hi) << "node " << id;
    const core::BinMoments m = ctx.moments(id);
    ASSERT_EQ(m.n, hi - lo + 1);
    ASSERT_EQ(m.stride, static_cast<std::size_t>(m.n));
    EXPECT_EQ(m.m, ctx.bins.data() + M::kPlanes * ctx.bin_off[id]);
    EXPECT_EQ(m.rep, ctx.rep.data() + lo);
    for (int i = 0; i < m.n; ++i) {
      const std::size_t k = static_cast<std::size_t>(lo + i);
      for (int pl = 0; pl < M::kPlanes; ++pl) {
        // Q and S are plain sums; P, U and Θ carry the rounding of the
        // parallel-axis shifts, and T an extra factor of R.
        const double tol = (pl == M::Q || pl == M::S) ? 1e-9 : 1e-8;
        EXPECT_NEAR(m.at(pl, i), want[k][pl], tol)
            << "node " << id << " bin " << k << " plane " << pl;
      }
    }
  }
}

TEST(EpolContext, FootprintCountsEveryMomentPlane) {
  // Exact accounting: fifteen compact moment planes (Q, S, T, P, U and
  // the six entries of Θ) with one cell per bin of each node's range,
  // the per-bin representative radii, the two int16 range planes and the
  // offsets.
  const Problem p(400);
  const auto ta = core::AtomsTree::build(p.molecule);
  std::vector<double> born(ta.num_atoms());
  for (std::size_t i = 0; i < born.size(); ++i)
    born[i] = 1.3 + 0.21 * static_cast<double>(i % 13);
  const auto ctx = core::EpolContext::build(ta, born, 0.7);
  const std::size_t nodes = ta.tree.nodes().size();
  const std::size_t nbins = static_cast<std::size_t>(ctx.nbins);
  ASSERT_GT(nbins, 2u);
  std::size_t cells = 0;
  for (std::size_t id = 0; id < nodes; ++id)
    cells += static_cast<std::size_t>(ctx.bin_hi[id] - ctx.bin_lo[id] + 1);
  EXPECT_LT(cells, nodes * nbins);  // compact: leaves span a few bins
  EXPECT_EQ(core::BinMoments::kPlanes, 15);
  EXPECT_EQ(ctx.footprint_bytes(),
            (15 * cells + nbins) * sizeof(double) +
                nodes * (2 * sizeof(std::int16_t) + sizeof(std::size_t)));
  EXPECT_EQ(core::EpolContext{}.footprint_bytes(), 0u);
}

namespace {

/// A synthetic cluster of `n` atoms of size `size` about `center`: mixed
/// charges, and radii spread over four geometric bins rep_k = 1.5·1.5^k,
/// each within ±15 %·size of its bin's representative, so the spread of
/// positions and of radii both scale with `size`.
struct Cluster {
  std::vector<geom::Vec3> x;
  std::vector<double> q, r;
  std::vector<int> bin;
  geom::Vec3 centroid;
};

constexpr int kClusterBins = 4;

double cluster_rep(int k) { return 1.5 * std::pow(1.5, k); }

Cluster make_cluster(std::uint64_t seed, geom::Vec3 center, double size) {
  util::Xoshiro256 rng(seed);
  Cluster c;
  for (int a = 0; a < 24; ++a) {
    const geom::Vec3 xi{rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5),
                        rng.uniform(-1.5, 1.5)};
    const int k = a % kClusterBins;
    c.x.push_back(center + xi * size);
    c.q.push_back(rng.uniform(-1.0, 1.0));
    c.r.push_back(cluster_rep(k) * (1.0 + size * rng.uniform(-0.15, 0.15)));
    c.bin.push_back(k);
    c.centroid += c.x.back();
  }
  c.centroid = c.centroid / static_cast<double>(c.x.size());
  return c;
}

/// Per-bin moment planes of a cluster; `monopole` keeps only Q (S =
/// rep·Q, T = rep²·Q, P = U = Θ = 0), which is the far field before the
/// Taylor terms.
struct ClusterMoments {
  using M = core::BinMoments;
  std::vector<double> m, rep;
  ClusterMoments(const Cluster& c, bool monopole)
      : m(M::kPlanes * kClusterBins), rep(kClusterBins) {
    for (int k = 0; k < kClusterBins; ++k) rep[k] = cluster_rep(k);
    const auto cell = [&](int p, int k) -> double& {
      return m[static_cast<std::size_t>(p * kClusterBins + k)];
    };
    for (std::size_t a = 0; a < c.x.size(); ++a) {
      const int k = c.bin[a];
      const double q = c.q[a], r = monopole ? rep[k] : c.r[a];
      cell(M::Q, k) += q;
      cell(M::S, k) += q * r;
      cell(M::T, k) += q * r * r;
      if (monopole) continue;
      const geom::Vec3 d = c.x[a] - c.centroid;
      const double dc[3] = {d.x, d.y, d.z};
      for (int i = 0; i < 3; ++i) {
        cell(M::Px + i, k) += q * dc[i];
        cell(M::Ux + i, k) += q * r * dc[i];
        cell(M::Txx + i, k) += q * dc[i] * dc[i];
      }
      cell(M::Txy, k) += q * d.x * d.y;
      cell(M::Txz, k) += q * d.x * d.z;
      cell(M::Tyz, k) += q * d.y * d.z;
    }
  }
  core::BinMoments view() const {
    return {m.data(), kClusterBins, rep.data(), kClusterBins};
  }
};

/// {monopole error, far-field error} of the far field between clusters
/// of size `size` against their exact pair sum.
std::pair<double, double> far_field_errors(double size) {
  const geom::Vec3 ca{0.0, 0.0, 0.0}, cb{7.5, 3.0, -2.5};
  const Cluster a = make_cluster(11, ca, size), b = make_cluster(12, cb, size);
  double exact = 0.0;
  for (std::size_t i = 0; i < a.x.size(); ++i)
    for (std::size_t j = 0; j < b.x.size(); ++j)
      exact += a.q[i] * b.q[j] /
               core::f_gb(geom::dist2(a.x[i], b.x[j]), a.r[i] * b.r[j]);
  const geom::Vec3 d = a.centroid - b.centroid;
  const auto far = [&](bool monopole) {
    const ClusterMoments ma(a, monopole), mb(b, monopole);
    std::uint64_t pairs = 0;
    return simd::kernels(simd::VectorIsa::Scalar)->epol_far_bins(
        ma.view(), mb.view(), d.x, d.y, d.z, d.norm2(), pairs);
  };
  return {std::abs(far(true) - exact), std::abs(far(false) - exact)};
}

}  // namespace

TEST(EpolFarField, CorrectionIsSecondOrderInClusterSize) {
  // Centers 8.4 Å apart with radii up to 5 Å: exp(−d²/4RR) is far from
  // negligible, so the Born-radius terms matter as much as the dipole.
  // Halving the size of both clusters (positions and radius spread) must
  // halve the monopole error (first order) and cut the far field's error
  // by at least 3× (at least second order).
  for (const double size : {0.4, 0.2}) {
    const auto [mono, corr] = far_field_errors(size);
    const auto [mono_half, corr_half] = far_field_errors(size / 2);
    EXPECT_GT(mono / mono_half, 1.6) << "size " << size;
    EXPECT_LT(mono / mono_half, 2.5) << "size " << size;
    EXPECT_GT(corr / corr_half, 3.0) << "size " << size;
    EXPECT_LT(corr, 0.25 * mono) << "size " << size;
  }
}

TEST(EpolFarField, SecondOrderErrorFallsAsCubeOfClusterSize) {
  // The far field keeps every Taylor term through second order in the
  // atom offsets and the Born-radius products, so its error is third
  // order: halving both clusters cuts it ~8× (a first-order field would
  // give ~4×), and it stays far below the monopole's.
  for (const double size : {0.4, 0.2, 0.1}) {
    const auto [mono, corr] = far_field_errors(size);
    const auto [mono_half, corr_half] = far_field_errors(size / 2);
    EXPECT_GT(corr / corr_half, 6.0) << "size " << size;
    EXPECT_LT(corr / corr_half, 10.0) << "size " << size;
    EXPECT_LT(corr, 0.05 * mono) << "size " << size;
  }
}

TEST(EpolFarField, ForceFarTermIsTheEnergyFarTermsGradient) {
  // The force pass's far term for one V atom is the gradient in the
  // atom's position of the energy's far term, the atom a one-bin table
  // (Q = 1, S = R, T = R², rep = R): central differences of
  // epol_far_bins agree with detail::far_atom_gradient.
  using M = core::BinMoments;
  const Cluster u = make_cluster(21, {0.0, 0.0, 0.0}, 0.4);
  const ClusterMoments mu(u, false);
  const double rv = 2.3;
  std::array<double, M::kPlanes> atom{};
  atom[M::Q] = 1.0;
  atom[M::S] = rv;
  atom[M::T] = rv * rv;
  const core::BinMoments mv{atom.data(), 1, &rv, 1};
  const auto energy = [&](const geom::Vec3& xv) {
    const geom::Vec3 d = u.centroid - xv;
    std::uint64_t pairs = 0;
    return simd::kernels(simd::VectorIsa::Scalar)->epol_far_bins(
        mu.view(), mv, d.x, d.y, d.z, d.norm2(), pairs);
  };
  for (const geom::Vec3 xv : {geom::Vec3{7.5, 3.0, -2.5},
                              geom::Vec3{-4.0, 6.0, 1.0},
                              geom::Vec3{12.0, -1.0, 5.0}}) {
    std::uint64_t pairs = 0;
    const geom::Vec3 g =
        core::detail::far_atom_gradient(mu.view(), xv - u.centroid, rv, pairs);
    EXPECT_EQ(pairs, static_cast<std::uint64_t>(kClusterBins));
    const double h = 1e-4;
    const geom::Vec3 ex{1, 0, 0}, ey{0, 1, 0}, ez{0, 0, 1};
    const double fd[3] = {
        (energy(xv + ex * h) - energy(xv - ex * h)) / (2 * h),
        (energy(xv + ey * h) - energy(xv - ey * h)) / (2 * h),
        (energy(xv + ez * h) - energy(xv - ez * h)) / (2 * h)};
    const double scale = std::abs(fd[0]) + std::abs(fd[1]) + std::abs(fd[2]);
    EXPECT_NEAR(g.x, fd[0], 1e-6 * scale);
    EXPECT_NEAR(g.y, fd[1], 1e-6 * scale);
    EXPECT_NEAR(g.z, fd[2], 1e-6 * scale);
  }
}

TEST(EpolFarField, ZeroChargeBodyGivesExactlyZero) {
  // Every moment of a zero-charge body vanishes, so each far bin pair is
  // skipped and each exact pair is 0·finite: the cross energy is exactly 0
  // with the neutral body on either side, at every width.
  const auto ma = mol::generate_protein({.target_atoms = 300, .seed = 5});
  auto mb = mol::generate_protein({.target_atoms = 150, .seed = 6});
  for (auto& atom : mb.atoms()) atom.charge = 0.0;
  mb.transform(geom::RigidTransform::translate({14.0, 2.0, -1.0}));
  const auto ta = core::AtomsTree::build(ma);
  const auto tb = core::AtomsTree::build(mb);
  const auto born_a = synthetic_born(ta), born_b = synthetic_born(tb);
  const auto ctx_a = core::EpolContext::build(ta, born_a, 0.9);
  const auto ctx_b = core::EpolContext::build(tb, born_b, 0.9);
  std::vector<simd::VectorIsa> isas{simd::VectorIsa::Scalar};
  for (auto isa : {simd::VectorIsa::V128, simd::VectorIsa::V256})
    if (simd::isa_available(isa)) isas.push_back(isa);
  for (const auto isa : isas)
    for (const bool fast : {false, true}) {
      perf::WorkCounters wc;
      EXPECT_EQ(core::approx_epol_cross(ta, ctx_a, born_a, tb, ctx_b, born_b,
                                        0.9, fast, {}, wc,
                                        core::KernelKind::Batched, {isa}),
                0.0);
      EXPECT_EQ(core::approx_epol_cross(tb, ctx_b, born_b, ta, ctx_a, born_a,
                                        0.9, fast, {}, wc,
                                        core::KernelKind::Batched, {isa}),
                0.0);
      EXPECT_GT(wc.epol_exact, 0u);
    }
}

TEST(MirroredEpol, MatchesUnmirroredOracleOverTheSameInteractionSet) {
  // approx_epol evaluates each mutual exact leaf pair once, weighted ×2;
  // approx_epol_atom_based over all atoms runs the plain descent over the
  // same interaction set. Energies agree to reassociation and every work
  // counter is identical (epol_exact counts ordered pairs covered).
  mol::Molecule one_atom("one-atom");
  one_atom.add_atom({.pos = {1, 2, 3}, .radius = 1.5, .charge = -0.7});
  const auto small = mol::generate_protein({.target_atoms = 24, .seed = 8});
  struct Input {
    const char* name;
    mol::Molecule molecule;
    std::uint32_t max_leaf_size;
  };
  const Input inputs[] = {
      {"zdock 1PPE_l_b", mol::make_benchmark_molecule("1PPE_l_b"), 16},
      {"cmv shell", mol::make_cmv(0.003), 32},
      {"single leaf", small, 64},
      {"one atom", one_atom, 32},
  };
  std::vector<simd::VectorParams> vectors = {{simd::VectorIsa::Scalar}};
  for (auto isa : {simd::VectorIsa::V128, simd::VectorIsa::V256})
    if (simd::isa_available(isa)) vectors.push_back({isa});
  const GBParams gb;
  for (const auto& in : inputs) {
    const auto ta = core::AtomsTree::build(
        in.molecule, {.max_leaf_size = in.max_leaf_size});
    if (std::string_view(in.name) == "single leaf") {
      ASSERT_EQ(ta.tree.leaf_ids().size(), 1u);
    }
    const auto born = synthetic_born(ta);
    const auto n = static_cast<std::uint32_t>(ta.num_atoms());
    for (double eps : {0.1, 0.5, 0.9}) {
      const auto ctx = core::EpolContext::build(ta, born, eps);
      for (const auto& vec : vectors)
        for (bool approx_math : {false, true}) {
          perf::WorkCounters wm, wo;
          const double mirrored = core::approx_epol(
              ta, ctx, born, ta.tree.leaf_ids(), eps, approx_math, gb, wm,
              core::KernelKind::Batched, vec);
          const double oracle = core::approx_epol_atom_based(
              ta, ctx, born, 0, n, eps, approx_math, gb, wo, vec);
          const std::string where =
              std::string(in.name) + " eps=" + std::to_string(eps) +
              " isa=" + std::to_string(int(vec.isa)) +
              " approx_math=" + std::to_string(approx_math);
          EXPECT_NEAR(mirrored, oracle, 1e-12 * std::abs(oracle)) << where;
          EXPECT_EQ(wm.epol_exact, wo.epol_exact) << where;
          EXPECT_EQ(wm.epol_bins, wo.epol_bins) << where;
          EXPECT_EQ(wm.epol_visits, wo.epol_visits) << where;
        }
    }
  }
}

TEST(MirroredEpol, PartitionSumsMatchTheFullCall) {
  // The mirrored pass is exact only summed over a partition of all leaves:
  // every caller's segmentation must reproduce the full call, with the
  // counter totals unchanged.
  const Problem p(900);
  EngineConfig cfg;
  cfg.atoms_tree_params.max_leaf_size = 8;
  cfg.approx.eps_epol = 0.5;
  GBEngine engine(p.molecule, p.surf, cfg);
  const auto& ta = engine.atoms_tree();
  const auto born = synthetic_born(ta);
  const auto ctx = engine.build_epol_context(born);
  const auto& leaves = engine.a_leaves();
  perf::WorkCounters full_work;
  const double full = engine.phase_epol(
      ctx, born, {0, static_cast<std::uint32_t>(leaves.size())}, full_work);
  for (int parts : {1, 2, 3, 5, 8}) {
    const auto weighted = core::weighted_leaf_segments(ta.tree, leaves, parts);
    ASSERT_EQ(weighted.size(), static_cast<std::size_t>(parts));
    for (bool use_weighted : {false, true}) {
      perf::WorkCounters work;
      double sum = 0.0;
      for (int r = 0; r < parts; ++r)
        sum += engine.phase_epol(
            ctx, born,
            use_weighted ? weighted[r]
                         : core::even_segment(leaves.size(), parts, r),
            work);
      EXPECT_NEAR(sum, full, 1e-12 * std::abs(full))
          << "P=" << parts << " weighted=" << use_weighted;
      EXPECT_EQ(work.epol_exact, full_work.epol_exact) << "P=" << parts;
      EXPECT_EQ(work.epol_bins, full_work.epol_bins) << "P=" << parts;
      EXPECT_EQ(work.epol_visits, full_work.epol_visits) << "P=" << parts;
    }
  }
}

// ---- approximate math ---------------------------------------------------------

TEST(ApproxMath, ShiftsEnergyByAFewPercent) {
  const Problem p(400);
  EngineConfig exact_cfg;
  GBEngine exact_engine(p.molecule, p.surf, exact_cfg);
  const double exact_e = exact_engine.compute().epol;

  EngineConfig approx_cfg;
  approx_cfg.approx.approx_math = true;
  GBEngine approx_engine(p.molecule, p.surf, approx_cfg);
  const double approx_e = approx_engine.compute().epol;

  const double shift = std::abs(approx_e - exact_e) / std::abs(exact_e);
  EXPECT_GT(shift, 1e-5);  // it must actually change something
  EXPECT_LT(shift, 0.08);  // §V-C reports a 4–5 % band
}

// ---- work division -------------------------------------------------------------

TEST(WorkDiv, EvenSegmentsTileTheRange) {
  for (std::size_t n : {0u, 1u, 7u, 100u, 101u}) {
    for (int P : {1, 2, 3, 7, 12}) {
      std::uint32_t cursor = 0;
      for (int i = 0; i < P; ++i) {
        const auto seg = core::even_segment(n, P, i);
        EXPECT_EQ(seg.begin, cursor);
        cursor = seg.end;
        // Balanced to within one element.
        EXPECT_LE(seg.size(), (n + P - 1) / P);
      }
      EXPECT_EQ(cursor, n);
    }
  }
}

TEST(WorkDiv, WeightedSegmentsBalancePointCounts) {
  const Problem p(900);
  GBEngine engine(p.molecule, p.surf);
  const auto& tree = engine.atoms_tree().tree;
  const auto& leaves = engine.a_leaves();
  const int P = 6;
  const auto segs = core::weighted_leaf_segments(tree, leaves, P);
  ASSERT_EQ(segs.size(), static_cast<std::size_t>(P));
  EXPECT_EQ(segs.front().begin, 0u);
  EXPECT_EQ(segs.back().end, leaves.size());
  std::uint64_t total = 0, max_part = 0;
  for (const auto& s : segs) {
    std::uint64_t part = 0;
    for (std::uint32_t li = s.begin; li < s.end; ++li)
      part += tree.node(leaves[li]).size();
    total += part;
    max_part = std::max(max_part, part);
  }
  EXPECT_EQ(total, engine.num_atoms());
  // No part exceeds its fair share by more than one leaf's worth.
  EXPECT_LE(max_part, total / P + 32 + 1);
}

// ---- engine-level sanity ---------------------------------------------------------

TEST(Engine, DeterministicAcrossRuns) {
  const Problem p(300);
  GBEngine engine(p.molecule, p.surf);
  const auto r1 = engine.compute();
  const auto r2 = engine.compute();
  EXPECT_DOUBLE_EQ(r1.epol, r2.epol);
  EXPECT_EQ(r1.born, r2.born);
  EXPECT_EQ(r1.work.born_exact, r2.work.born_exact);
  EXPECT_EQ(r1.work.epol_exact, r2.work.epol_exact);
}

TEST(Engine, SchedulerProducesSameEnergyAsSerial) {
  const Problem p(500);
  GBEngine engine(p.molecule, p.surf);
  const auto serial = engine.compute();
  ws::Scheduler sched(4);
  const auto parallel = engine.compute(&sched);
  // Every Born slot has one writer and Epol folds fixed blocks in order:
  // the schedule cannot change a bit.
  EXPECT_EQ(parallel.epol, serial.epol);
  for (std::size_t i = 0; i < serial.born.size(); ++i)
    EXPECT_EQ(parallel.born[i], serial.born[i]) << "atom " << i;
}

TEST(Engine, CountersAreIdenticalRegardlessOfThreads) {
  // Operation counts are a property of the algorithm, not the schedule.
  const Problem p(400);
  GBEngine engine(p.molecule, p.surf);
  const auto serial = engine.compute();
  ws::Scheduler sched(3);
  const auto parallel = engine.compute(&sched);
  EXPECT_EQ(parallel.work.born_exact, serial.work.born_exact);
  EXPECT_EQ(parallel.work.born_approx, serial.work.born_approx);
  EXPECT_EQ(parallel.work.epol_exact, serial.work.epol_exact);
  EXPECT_EQ(parallel.work.epol_bins, serial.work.epol_bins);
  EXPECT_EQ(parallel.work.push_atoms, serial.work.push_atoms);
}

TEST(Engine, OctreeBeatsNaiveOnWork) {
  // The core asymptotic claim: work far below the naive M·N / M²
  // interaction counts, with the advantage growing with molecule size.
  const Problem p(8000);
  GBEngine engine(p.molecule, p.surf);
  const auto result = engine.compute();
  const double naive_born_work =
      double(p.molecule.size()) * double(p.surf.size());
  const double naive_epol_work =
      double(p.molecule.size()) * double(p.molecule.size());
  EXPECT_LT(double(result.work.born_exact + result.work.born_approx),
            0.30 * naive_born_work);
  EXPECT_LT(double(result.work.epol_exact + result.work.epol_bins),
            0.85 * naive_epol_work);

  // Smaller molecule: smaller relative savings (the paper's observation
  // that ε hardly matters for small molecules).
  const Problem small(800);
  GBEngine small_engine(small.molecule, small.surf);
  const auto small_result = small_engine.compute();
  const double small_ratio =
      double(small_result.work.born_exact + small_result.work.born_approx) /
      (double(small.molecule.size()) * double(small.surf.size()));
  const double big_ratio =
      double(result.work.born_exact + result.work.born_approx) /
      naive_born_work;
  EXPECT_GT(small_ratio, big_ratio);
}

TEST(Engine, BornToInputOrderInvertsPermutation) {
  const Problem p(200);
  GBEngine engine(p.molecule, p.surf);
  std::vector<double> tree_order(engine.num_atoms());
  const auto idx = engine.atoms_tree().tree.point_index();
  for (std::size_t pos = 0; pos < tree_order.size(); ++pos)
    tree_order[pos] = static_cast<double>(idx[pos]);  // original index
  const auto input_order = engine.born_to_input_order(tree_order);
  for (std::size_t i = 0; i < input_order.size(); ++i)
    EXPECT_DOUBLE_EQ(input_order[i], static_cast<double>(i));
}

TEST(Engine, NonFiniteChargeOrBadRadiusIsRejectedAtIngress) {
  // A NaN charge would otherwise flow through to a NaN energy. Both entry
  // points that take a Molecule name the input index and the field.
  const Problem p(200);
  constexpr std::size_t kBad = 17;
  struct Case {
    bool charge;  // poison the charge (else the vdw radius)
    double value;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const Case c : {Case{true, nan}, Case{true, inf}, Case{true, -inf},
                       Case{false, nan}, Case{false, inf}, Case{false, -inf},
                       Case{false, -1.0}}) {
    const std::string field = c.charge ? "charge" : "vdw radius";
    SCOPED_TRACE(field + " " + std::to_string(c.value));
    mol::Molecule bad = p.molecule;
    mol::Atom& atom = bad.atoms()[kBad];
    (c.charge ? atom.charge : atom.radius) = c.value;
    const auto expect_named = [&](const auto& call) {
      try {
        call();
        ADD_FAILURE() << "accepted a bad " << field;
      } catch (const util::CheckError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("atom " + std::to_string(kBad) + " "),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find(field), std::string::npos) << what;
      }
    };
    expect_named([&] { (void)core::AtomsTree::build(bad); });
    expect_named([&] { GBEngine engine(bad, p.surf); });
  }
  // A zero radius stays legal.
  mol::Molecule zero = p.molecule;
  zero.atoms()[kBad].radius = 0.0;
  EXPECT_NO_THROW((void)core::AtomsTree::build(zero));
}

namespace {

/// One non-finite surface payload: a weight or one normal component.
struct BadPayload {
  int axis;  // -1 poisons the weight, 0..2 that normal component
  double value;
};

std::vector<BadPayload> bad_payloads() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  return {{-1, nan}, {-1, inf}, {-1, -inf}, {0, nan}, {1, inf}, {2, -inf}};
}

surface::Surface poisoned(const surface::Surface& surf, std::size_t i,
                          const BadPayload& c) {
  surface::Surface bad = surf;
  if (c.axis < 0)
    bad.weights[i] = c.value;
  else
    (c.axis == 0 ? bad.normals[i].x
                 : c.axis == 1 ? bad.normals[i].y : bad.normals[i].z) =
        c.value;
  return bad;
}

/// `call` must throw a CheckError naming point `i` and the poisoned field.
template <class F>
void expect_payload_rejected(const F& call, std::size_t i,
                             const BadPayload& c) {
  const std::string field = c.axis < 0 ? "weight" : "normal";
  SCOPED_TRACE(field + " axis " + std::to_string(c.axis) + " = " +
               std::to_string(c.value));
  try {
    call();
    ADD_FAILURE() << "accepted a non-finite " << field;
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("point " + std::to_string(i) + " "),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("non-finite " + field), std::string::npos) << what;
  }
}

}  // namespace

TEST(QPointsTree, BuildRejectsNonFiniteWeightOrNormal) {
  // One NaN weight would spread through the far terms to every Born
  // radius; the tree build (and so the engine) rejects it by point index.
  const Problem p(200);
  constexpr std::size_t kBad = 5;
  for (const BadPayload& c : bad_payloads()) {
    const surface::Surface bad = poisoned(p.surf, kBad, c);
    expect_payload_rejected([&] { (void)core::QPointsTree::build(bad); },
                            kBad, c);
    expect_payload_rejected([&] { GBEngine engine(p.molecule, bad); }, kBad,
                            c);
  }
  // A payload shorter than the point list would be read out of bounds.
  surface::Surface short_weights = p.surf;
  short_weights.weights.pop_back();
  EXPECT_THROW((void)core::QPointsTree::build(short_weights),
               util::CheckError);
}

TEST(QPointsTree, RefitRejectsNonFiniteWeightOrNormalAndKeepsTheTree) {
  const Problem p(200);
  core::QPointsTree tq = core::QPointsTree::build(p.surf);
  const std::vector<double> wnx = tq.soa_wnx;
  const std::size_t kBad = p.surf.size() - 1;
  for (const BadPayload& c : bad_payloads()) {
    const surface::Surface bad = poisoned(p.surf, kBad, c);
    expect_payload_rejected([&] { tq.refit(bad); }, kBad, c);
    EXPECT_EQ(tq.soa_wnx, wnx);  // the throw left the payload as it was
  }
  EXPECT_NO_THROW(tq.refit(p.surf));
}

TEST(Engine, BornWalkRejectsStartIdsThatAreNotTQLeaves) {
  // The Born walk takes Q only at T_Q leaves, and only leaves carry
  // moments: an internal start id would silently contribute nothing, so
  // it is rejected by id, as is one past the last node.
  const Problem p(300);
  GBEngine engine(p.molecule, p.surf);
  const core::AtomsTree& ta = engine.atoms_tree();
  const core::QPointsTree& tq = engine.qpoints_tree();
  ASSERT_FALSE(tq.tree.node(0).is_leaf());
  const auto n_nodes = static_cast<std::uint32_t>(tq.tree.nodes().size());
  for (const std::uint32_t bad : {0u, n_nodes}) {
    std::vector<double> node_s(engine.num_ta_nodes(), 0.0);
    std::vector<double> atom_s(engine.num_atoms(), 0.0);
    perf::WorkCounters work;
    try {
      core::approx_integrals(ta, tq, {&bad, 1}, 0.9, false, node_s, atom_s,
                             work);
      ADD_FAILURE() << "accepted start id " << bad;
    } catch (const util::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("start id " +
                                           std::to_string(bad) + " "),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Engine, ReversedPhaseSegmentIsRejected) {
  // Segment{5, 3}.size() wraps around; the phase calls must reject it
  // before it reaches subspan.
  const Problem p(300);
  GBEngine engine(p.molecule, p.surf);
  ASSERT_GT(engine.q_leaves().size(), 5u);
  ASSERT_GT(engine.a_leaves().size(), 5u);
  const core::Segment reversed{5, 3};
  std::vector<double> node_s(engine.num_ta_nodes(), 0.0);
  std::vector<double> atom_s(engine.num_atoms(), 0.0);
  perf::WorkCounters work;
  EXPECT_THROW(engine.phase_integrals(reversed, node_s, atom_s, work),
               util::CheckError);
  const std::vector<double> born_tree(engine.num_atoms(), 2.0);
  const core::EpolContext ctx = engine.build_epol_context(born_tree);
  EXPECT_THROW((void)engine.phase_epol(ctx, born_tree, reversed, work),
               util::CheckError);
}

// ---- structural invariance ------------------------------------------------

/// The energy must be (approximation-band) independent of the octree
/// build parameters — leaf size changes the tree shape, not the physics.
class LeafSizeInvariance : public ::testing::TestWithParam<int> {};

TEST_P(LeafSizeInvariance, EnergyStableAcrossLeafSizes) {
  static const Problem p(700);
  static const double reference = [] {
    const auto naive_born = core::naive_born_radii(p.molecule, p.surf);
    return core::naive_epol(p.molecule, naive_born);
  }();
  EngineConfig cfg;
  cfg.atoms_tree_params.max_leaf_size = GetParam();
  cfg.qpoints_tree_params.max_leaf_size = 2 * GetParam();
  GBEngine engine(p.molecule, p.surf, cfg);
  const auto result = engine.compute();
  // Tiny leaves fire more (finer-grained) far-field approximations, so
  // the realized error creeps up slightly below leaf size ~16.
  const double budget = GetParam() < 16 ? 0.02 : 0.01;
  EXPECT_LT(std::abs(result.epol - reference) / std::abs(reference), budget)
      << "leaf size " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(LeafSizes, LeafSizeInvariance,
                         ::testing::Values(4, 16, 32, 64, 128));

/// Surface resolution sweep: richer quadrature must not destabilize the
/// octree-vs-naive agreement (both consume the same point set).
class SurfaceResolution
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SurfaceResolution, OctreeTracksNaiveAtEveryResolution) {
  const auto [subdivision, degree] = GetParam();
  const auto m = mol::generate_protein({.target_atoms = 250, .seed = 27});
  const auto surf = surface::build_surface(
      m, {.subdivision = subdivision, .quad_degree = degree});
  const auto naive_born = core::naive_born_radii(m, surf);
  const double naive_e = core::naive_epol(m, naive_born);
  GBEngine engine(m, surf);
  const auto result = engine.compute();
  EXPECT_LT(std::abs(result.epol - naive_e) / std::abs(naive_e), 0.01)
      << "subdivision " << subdivision << " degree " << degree;
}

INSTANTIATE_TEST_SUITE_P(Resolutions, SurfaceResolution,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(1, 2, 4)));

// ---- batched SoA kernels (the Scalar ISA's width-1 table) ----------------

#include "octgb/core/batch_kernels.hpp"
#include "octgb/core/born.hpp"
#include "octgb/util/check.hpp"
#include "octgb/util/rng.hpp"

TEST(BatchKernels, BornIntegralMatchesScalarSum) {
  util::Xoshiro256 rng(123);
  const std::size_t n = 257;  // odd size: exercises vector remainders
  std::vector<geom::Vec3> pts(n), normals(n);
  std::vector<double> w(n);
  for (std::size_t k = 0; k < n; ++k) {
    pts[k] = {rng.uniform(-10, 10), rng.uniform(-10, 10),
              rng.uniform(-10, 10)};
    normals[k] = geom::Vec3{rng.normal(), rng.normal(), rng.normal()}
                     .normalized();
    w[k] = rng.uniform(0.01, 0.5);
  }
  std::vector<double> qx(n), qy(n), qz(n), wnx(n), wny(n), wnz(n);
  core::split_soa(pts, qx, qy, qz);
  for (std::size_t k = 0; k < n; ++k) {
    wnx[k] = w[k] * normals[k].x;
    wny[k] = w[k] * normals[k].y;
    wnz[k] = w[k] * normals[k].z;
  }
  const geom::Vec3 a{15, -3, 2};  // outside the cloud
  double scalar = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const geom::Vec3 d = pts[k] - a;
    const double r2 = d.norm2();
    scalar += w[k] * normals[k].dot(d) / (r2 * r2 * r2);
  }
  const double batched = simd::kernels(simd::VectorIsa::Scalar)->born_integral(
      a.x, a.y, a.z, {qx, qy, qz, wnx, wny, wnz});
  EXPECT_NEAR(batched, scalar, 1e-12 * (std::abs(scalar) + 1.0));
}

TEST(BatchKernels, CoincidentPointContributesZero) {
  // A q-point exactly on the atom center must be skipped, not NaN.
  std::vector<double> qx = {0.0, 3.0}, qy = {0.0, 0.0}, qz = {0.0, 0.0};
  std::vector<double> wnx = {1.0, 1.0}, wny = {0.0, 0.0}, wnz = {0.0, 0.0};
  const double v = simd::kernels(simd::VectorIsa::Scalar)->born_integral(
      0.0, 0.0, 0.0, {qx, qy, qz, wnx, wny, wnz});
  EXPECT_TRUE(std::isfinite(v));
  // Only the second point contributes: wn·d/|d|⁶ = 3/729.
  EXPECT_NEAR(v, 3.0 / 729.0, 1e-15);
}

TEST(BatchKernels, EpolSumMatchesScalarFgb) {
  util::Xoshiro256 rng(321);
  const std::size_t n = 130;
  std::vector<double> ux(n), uy(n), uz(n), qu(n), ru(n);
  for (std::size_t k = 0; k < n; ++k) {
    ux[k] = rng.uniform(-8, 8);
    uy[k] = rng.uniform(-8, 8);
    uz[k] = rng.uniform(-8, 8);
    qu[k] = rng.uniform(-0.8, 0.8);
    ru[k] = rng.uniform(1.2, 5.0);
  }
  const double vx = 1.0, vy = -2.0, vz = 0.5, qv = -0.6, rv = 2.3;
  double scalar = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double r2 = (ux[k] - vx) * (ux[k] - vx) +
                      (uy[k] - vy) * (uy[k] - vy) +
                      (uz[k] - vz) * (uz[k] - vz);
    scalar += qu[k] * qv / core::f_gb(r2, ru[k] * rv);
  }
  const double batched = simd::kernels(simd::VectorIsa::Scalar)->epol_sum(
      vx, vy, vz, qv, rv, {ux, uy, uz, qu, ru});
  EXPECT_NEAR(batched, scalar, 1e-12 * (std::abs(scalar) + 1.0));
}

TEST(BatchKernels, SplitSoaRoundTrip) {
  const std::vector<geom::Vec3> pts = {{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  std::vector<double> x(3), y(3), z(3);
  core::split_soa(pts, x, y, z);
  EXPECT_EQ(x[1], 4.0);
  EXPECT_EQ(y[2], 8.0);
  EXPECT_EQ(z[0], 3.0);
  std::vector<double> bad(2);
  EXPECT_THROW(core::split_soa(pts, bad, y, z), util::CheckError);
}
