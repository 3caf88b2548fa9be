// Differential tests guarding the SoA near-field kernels: the default
// (widest) vector width must agree with the width-1 Scalar ISA up to
// floating-point reassociation at every level (raw kernel, octree engine,
// dual traversal, degenerate molecules), and the default octree energy
// must stay inside the paper's (1+ε) approximation bound against the
// naive reference. The raw kernels are the Scalar ISA's width-1 table
// (simd::kernels(VectorIsa::Scalar)); this file's own loops are the
// independent references. Also pins down the kernels' edge-case
// contracts: empty/single-point batches, the branchless |r−a| < 1e-6
// skip, and the self-term inclusion of the GB pair sum.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "octgb/core/batch_kernels.hpp"
#include "octgb/core/born.hpp"
#include "octgb/core/engine.hpp"
#include "octgb/core/fastmath.hpp"
#include "octgb/core/naive.hpp"
#include "octgb/mol/generate.hpp"
#include "octgb/simd/dispatch.hpp"
#include "octgb/surface/surface.hpp"
#include "octgb/util/rng.hpp"
#include "octgb/ws/scheduler.hpp"

using namespace octgb;
using core::AtomBatch;
using core::EnergyResult;
using core::EngineConfig;
using core::GBEngine;
using core::QPointBatch;

namespace {

struct Problem {
  mol::Molecule molecule;
  surface::Surface surf;

  explicit Problem(std::size_t atoms, std::uint64_t seed)
      : molecule(mol::generate_protein({.target_atoms = atoms, .seed = seed})),
        surf(surface::build_surface(molecule, {.subdivision = 1})) {}
};

double rel_diff(double a, double b) {
  return std::abs(a - b) / std::max(1e-300, std::abs(b));
}

/// The Scalar ISA's width-1 table, the kernels under test here.
const simd::KernelSet& scalar_table() {
  return *simd::kernels(simd::VectorIsa::Scalar);
}

/// Independent reference for the Born kernel (the born.cpp leaf loop).
double scalar_born_integral(double ax, double ay, double az,
                            const QPointBatch& q) {
  double s = 0.0;
  for (std::size_t k = 0; k < q.size(); ++k) {
    const double dx = q.x[k] - ax, dy = q.y[k] - ay, dz = q.z[k] - az;
    const double r2 = dx * dx + dy * dy + dz * dz;
    if (r2 < 1e-12) continue;
    s += (q.wnx[k] * dx + q.wny[k] * dy + q.wnz[k] * dz) /
         (r2 * r2 * r2);
  }
  return s;
}

/// The width-1 arithmetic the default (widest) one is compared against.
EngineConfig width_one(EngineConfig cfg = {}) {
  cfg.approx.vector = {simd::VectorIsa::Scalar};
  return cfg;
}

/// Independent reference for the GB pair kernel (the epol.cpp leaf loop).
double scalar_epol_sum(double vx, double vy, double vz, double qv, double rv,
                       const AtomBatch& atoms) {
  double s = 0.0;
  for (std::size_t k = 0; k < atoms.size(); ++k) {
    const double dx = atoms.x[k] - vx, dy = atoms.y[k] - vy,
                 dz = atoms.z[k] - vz;
    const double r2 = dx * dx + dy * dy + dz * dz;
    s += atoms.charge[k] * qv / core::f_gb(r2, atoms.born[k] * rv);
  }
  return s;
}

}  // namespace

// ---- randomized widest-vs-width-1 agreement -------------------------------

TEST(KernelDiff, RawBornKernelMatchesScalarOnRealLeaves) {
  for (std::uint64_t seed : {1, 7, 23}) {
    const Problem p(300, seed);
    GBEngine engine(p.molecule, p.surf);
    const auto& ta = engine.atoms_tree();
    const auto& tq = engine.qpoints_tree();
    for (std::uint32_t q_id : tq.tree.leaf_ids()) {
      const auto& q = tq.tree.node(q_id);
      const QPointBatch qb = tq.batch(q.begin, q.end);
      for (std::size_t ai = 0; ai < std::min<std::size_t>(ta.num_atoms(), 64);
           ++ai) {
        const double batched = scalar_table().born_integral(
            ta.soa_x()[ai], ta.soa_y()[ai], ta.soa_z()[ai], qb);
        const double scalar = scalar_born_integral(ta.soa_x()[ai], ta.soa_y()[ai],
                                                   ta.soa_z()[ai], qb);
        EXPECT_NEAR(batched, scalar, 1e-9 * (1.0 + std::abs(scalar)))
            << "seed " << seed << " leaf " << q_id << " atom " << ai;
      }
    }
  }
}

TEST(KernelDiff, RawEpolKernelMatchesScalarOnRealLeaves) {
  for (std::uint64_t seed : {2, 11, 31}) {
    const Problem p(300, seed);
    GBEngine engine(p.molecule, p.surf);
    const auto& ta = engine.atoms_tree();
    const auto born = core::naive_born_radii(p.molecule, p.surf);
    // Tree-order Born plane, as the engine's phases would hold it.
    std::vector<double> born_tree(born.size());
    const auto idx = ta.tree.point_index();
    for (std::size_t pos = 0; pos < idx.size(); ++pos)
      born_tree[pos] = born[idx[pos]];
    const auto& leaves = ta.tree.leaf_ids();
    for (std::size_t li = 0; li < leaves.size(); ++li) {
      const auto& u = ta.tree.node(leaves[li]);
      const AtomBatch ub = ta.batch(u.begin, u.end, born_tree);
      const std::uint32_t vi = ta.tree.node(leaves[(li + 1) % leaves.size()])
                                   .begin;
      const double batched = scalar_table().epol_sum(
          ta.soa_x()[vi], ta.soa_y()[vi], ta.soa_z()[vi], ta.charge[vi],
          born_tree[vi], ub);
      const double scalar =
          scalar_epol_sum(ta.soa_x()[vi], ta.soa_y()[vi], ta.soa_z()[vi],
                          ta.charge[vi], born_tree[vi], ub);
      EXPECT_NEAR(batched, scalar, 1e-10 * (1.0 + std::abs(scalar)))
          << "seed " << seed << " leaf " << leaves[li];
    }
  }
}

/// Whole-engine differential sweep over many random molecules, the
/// default (widest) width against width 1: identical traversal
/// decisions, sums differing only by reassociation.
TEST(KernelDiff, EngineBatchedMatchesScalarManySeeds) {
  for (std::uint64_t seed : {3, 5, 17, 29, 41, 53}) {
    const Problem p(250 + 40 * (seed % 5), seed);
    const auto rs = GBEngine(p.molecule, p.surf, width_one()).compute();
    const auto rb = GBEngine(p.molecule, p.surf).compute();
    ASSERT_EQ(rs.born.size(), rb.born.size());
    for (std::size_t i = 0; i < rs.born.size(); ++i)
      EXPECT_LT(rel_diff(rb.born[i], rs.born[i]), 1e-9)
          << "seed " << seed << " atom " << i;
    // Epol tolerance is looser: a Born radius moving by one ulp can cross
    // an EpolContext bin edge and shift one atom's far-field binning.
    EXPECT_LT(rel_diff(rb.epol, rs.epol), 1e-6) << "seed " << seed;
    // Identical admissibility decisions: the work counters must agree
    // exactly, not just the physics.
    EXPECT_EQ(rb.work.born_exact, rs.work.born_exact) << "seed " << seed;
    EXPECT_EQ(rb.work.epol_exact, rs.work.epol_exact) << "seed " << seed;
  }
}

TEST(KernelDiff, DualTraversalBatchedMatchesScalar) {
  const Problem p(400, 13);
  const auto rs = GBEngine(p.molecule, p.surf, width_one()).compute_dual();
  const auto rb = GBEngine(p.molecule, p.surf).compute_dual();
  for (std::size_t i = 0; i < rs.born.size(); ++i)
    EXPECT_LT(rel_diff(rb.born[i], rs.born[i]), 1e-9) << "atom " << i;
  EXPECT_LT(rel_diff(rb.epol, rs.epol), 1e-6);
}

/// The §V-C approximate-math mode must vectorize too: the vector fastmath
/// kernels use the same per-term fast_rsqrt/fast_exp as the width-1
/// table, so widest-fast vs width-1-fast is again pure reassociation.
TEST(KernelDiff, FastmathBatchedMatchesFastmathScalar) {
  const Problem p(350, 37);
  EngineConfig fast_cfg;
  fast_cfg.approx.approx_math = true;
  const auto rs = GBEngine(p.molecule, p.surf, width_one(fast_cfg)).compute();
  const auto rb = GBEngine(p.molecule, p.surf, fast_cfg).compute();
  for (std::size_t i = 0; i < rs.born.size(); ++i)
    EXPECT_LT(rel_diff(rb.born[i], rs.born[i]), 1e-9) << "atom " << i;
  EXPECT_LT(rel_diff(rb.epol, rs.epol), 1e-6);
  // And the fastmath mode stays in the right ballpark of exact math
  // (§V-C reports 4–5 % on the paper's molecules; this generator's charge
  // distribution sees ~7 %).
  EngineConfig exact_cfg;
  const auto re = GBEngine(p.molecule, p.surf, exact_cfg).compute();
  EXPECT_LT(rel_diff(rb.epol, re.epol), 0.10);
}

// ---- paper's (1+ε) bound on the batched default path ---------------------

class BatchedEpsilonBound : public ::testing::TestWithParam<double> {};

TEST_P(BatchedEpsilonBound, BatchedOctreeEpolWithinBoundOfNaive) {
  const double eps = GetParam();
  for (std::uint64_t seed : {6, 43}) {
    const Problem p(400, seed);
    const auto naive_born = core::naive_born_radii(p.molecule, p.surf);
    const double naive_e = core::naive_epol(p.molecule, naive_born);
    EngineConfig cfg;  // batched kernel by default
    cfg.approx.eps_born = eps;
    cfg.approx.eps_epol = eps;
    const auto r = GBEngine(p.molecule, p.surf, cfg).compute();
    EXPECT_LE(std::abs(r.epol - naive_e), eps * std::abs(naive_e))
        << "eps " << eps << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(PaperEpsilons, BatchedEpsilonBound,
                         ::testing::Values(0.2, 0.5, 1.0));

// ---- edge-case contracts -------------------------------------------------

TEST(BatchKernelEdge, EmptyBatchesReturnZero) {
  const simd::KernelSet& k = scalar_table();
  const QPointBatch empty_q{};
  EXPECT_EQ(k.born_integral(1.0, 2.0, 3.0, empty_q), 0.0);
  EXPECT_EQ(k.born_integral_fast(1.0, 2.0, 3.0, empty_q), 0.0);
  const AtomBatch empty_a{};
  EXPECT_EQ(k.epol_sum(1.0, 2.0, 3.0, 0.5, 1.5, empty_a), 0.0);
  EXPECT_EQ(k.epol_sum_fast(1.0, 2.0, 3.0, 0.5, 1.5, empty_a), 0.0);
}

TEST(BatchKernelEdge, SinglePointBatchMatchesClosedForm) {
  const std::vector<double> x{3.0}, y{0.0}, z{0.0};
  const std::vector<double> wnx{0.25}, wny{0.0}, wnz{0.0};
  const QPointBatch q{x, y, z, wnx, wny, wnz};
  // Atom at origin: delta = (3,0,0), r² = 9, w·n·delta = 0.75.
  EXPECT_NEAR(scalar_table().born_integral(0.0, 0.0, 0.0, q), 0.75 / 729.0,
              1e-15);

  const std::vector<double> charge{-0.7}, born{2.0};
  const AtomBatch a{x, y, z, charge, born};
  const double expect = 0.4 * -0.7 / core::f_gb(9.0, 2.0 * 1.5);
  EXPECT_NEAR(scalar_table().epol_sum(0.0, 0.0, 0.0, 0.4, 1.5, a), expect,
              1e-15);
}

TEST(BatchKernelEdge, CoincidentPointsAreSkippedBranchlessly) {
  // Three points: one exactly on the atom, one at |r−a| = 1e-7 (inside
  // the r² < 1e-12 guard), one at a normal distance. Only the last may
  // contribute, and the sum must be finite (no 1/0 even with the masked
  // terms evaluated branchlessly).
  const std::vector<double> x{1.0, 1.0 + 1e-7, 4.0}, y{2.0, 2.0, 2.0},
      z{3.0, 3.0, 3.0};
  const std::vector<double> wnx{5.0, 5.0, 0.5}, wny{0.0, 0.0, 0.0},
      wnz{0.0, 0.0, 0.0};
  const QPointBatch q{x, y, z, wnx, wny, wnz};
  const simd::KernelSet& k = scalar_table();
  const double sum = k.born_integral(1.0, 2.0, 3.0, q);
  EXPECT_TRUE(std::isfinite(sum));
  EXPECT_NEAR(sum, 0.5 * 3.0 / std::pow(9.0, 3.0), 1e-15);
  const double fast_sum = k.born_integral_fast(1.0, 2.0, 3.0, q);
  EXPECT_TRUE(std::isfinite(fast_sum));
  EXPECT_NEAR(fast_sum, sum, 1e-4 * sum);  // fast_rsqrt ≈ 5e-6, ^6 ≈ 3e-5
  // A point just *outside* the guard must contribute (the guard is a
  // coincidence skip, not a near-field cutoff).
  const std::vector<double> x2{1.0 + 2e-6}, y2{2.0}, z2{3.0};
  const std::vector<double> wnx2{1.0}, wny2{0.0}, wnz2{0.0};
  EXPECT_GT(k.born_integral(1.0, 2.0, 3.0, {x2, y2, z2, wnx2, wny2, wnz2}),
            0.0);
}

TEST(BatchKernelEdge, EpolSelfTermIsIncludedByContract) {
  // A batch containing the query atom itself: the r = 0 diagonal term is
  // q_v² / f_GB(0, R_v²) = q_v² / R_v, NOT skipped. Callers that want it
  // excluded must slice the batch; the octree kernels keep it by design.
  const std::vector<double> x{1.0}, y{-2.0}, z{0.5};
  const std::vector<double> charge{0.8}, born{1.7};
  const AtomBatch self{x, y, z, charge, born};
  EXPECT_NEAR(scalar_table().epol_sum(1.0, -2.0, 0.5, 0.8, 1.7, self),
              0.8 * 0.8 / 1.7, 1e-14);
  // fast_exp(0) undershoots 1 by a few percent (Schraudolph), so the fast
  // self term carries that error through sqrt — allow the §V-C band.
  EXPECT_NEAR(scalar_table().epol_sum_fast(1.0, -2.0, 0.5, 0.8, 1.7, self),
              0.8 * 0.8 / 1.7, 0.05 * 0.8 * 0.8 / 1.7);
}

TEST(BatchKernelEdge, BornFarTermCoincidentCentroidsContributeZero) {
  // The admissibility criterion never admits d = 0, but direct calls and
  // degenerate single-point geometry can produce coincident (or NaN)
  // centroids; the far term must yield 0, not ±inf or NaN, and leave the
  // A-side gradient untouched.
  const geom::Vec3 c{1.0, -2.0, 3.0};
  const geom::Vec3 wn{5.0, 7.0, -1.0};
  const core::NormalMoment wm{0.3, -0.2, 0.5, 0.1, -0.4, 0.25};
  const geom::Vec3 g0{0.5, -1.5, 2.5};
  const auto expect_zero = [&](const geom::Vec3& qc, bool approx_math) {
    geom::Vec3 g = g0;
    EXPECT_EQ(core::born_far_term(c, qc, wn, wm, approx_math, g), 0.0);
    EXPECT_EQ(g, g0);
  };
  expect_zero(c, /*approx_math=*/false);
  expect_zero(c, /*approx_math=*/true);
  // Inside the r² ≤ 1e-12 coincidence band: still zero.
  expect_zero({1.0 + 1e-7, -2.0, 3.0}, false);
  // NaN centroid (poisoned upstream geometry) must not leak NaN into the
  // node partial or its gradient.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  expect_zero({nan, 0.0, 0.0}, false);
  expect_zero({nan, 0.0, 0.0}, true);
  // Just outside the band: a genuine (huge but finite) contribution and
  // gradient.
  const geom::Vec3 out_c{1.0 + 2e-6, -2.0, 3.0};
  geom::Vec3 g = g0;
  const double t = core::born_far_term(c, out_c, wn, {}, false, g);
  EXPECT_TRUE(std::isfinite(t));
  EXPECT_GT(t, 0.0);
  EXPECT_TRUE(std::isfinite(g.x) && std::isfinite(g.y) && std::isfinite(g.z));
  EXPECT_NE(g, g0);
}

TEST(BatchKernelEdge, ScalarBornPairSkipsCoincidentQPoints) {
  // A query placed exactly on the first q-point of a real surface: every
  // runnable kernel table skips that point and returns the finite sum
  // the reference loop scalar_born_integral gives over the others.
  const mol::Molecule m = mol::generate_protein({.target_atoms = 40,
                                                 .seed = 9});
  const surface::Surface s = surface::build_surface(m, {.subdivision = 0});
  GBEngine engine(m, s);
  const auto& tq = engine.qpoints_tree();
  const auto n = static_cast<std::uint32_t>(tq.num_points());
  const geom::Vec3 x = tq.tree.point(0);
  const QPointBatch qb = tq.batch(0, n);
  const double want = scalar_born_integral(x.x, x.y, x.z, qb);
  ASSERT_TRUE(std::isfinite(want));
  for (simd::VectorIsa isa : {simd::VectorIsa::Scalar, simd::VectorIsa::V128,
                              simd::VectorIsa::V256}) {
    if (!simd::isa_available(isa)) continue;
    const simd::KernelSet* k = simd::kernels(isa);
    EXPECT_NEAR(k->born_integral(x.x, x.y, x.z, qb), want,
                1e-9 * std::abs(want))
        << k->name;
    EXPECT_TRUE(std::isfinite(k->born_integral_fast(x.x, x.y, x.z, qb)))
        << k->name;
  }
}

TEST(BatchKernelEdge, GuardBoundaryIsSkippedByEveryBornKernel) {
  // The coincidence guard skips r² ≤ 1e-12 on every path. A q-point at
  // the origin and an atom at (−h, 0, 0) give a computed r² of h·h; pick
  // h so that this is exactly the double 1e-12. Every runnable kernel
  // table (the Scalar ISA's included) must skip the point.
  double h = 0.0;
  double lo = 1e-6, hi = 1e-6;
  for (int i = 0; i < 64 && h == 0.0; ++i) {
    if (lo * lo == 1e-12) h = lo;
    else if (hi * hi == 1e-12) h = hi;
    lo = std::nextafter(lo, 0.0);
    hi = std::nextafter(hi, 1.0);
  }
  ASSERT_NE(h, 0.0) << "no double h near 1e-6 with h*h == 1e-12";

  // 17 copies: a vector body at every width plus a scalar tail.
  const std::vector<double> x(17, 0.0), y(17, 0.0), z(17, 0.0);
  const std::vector<double> wnx(17, 1.0), wny(17, 0.0), wnz(17, 0.0);
  const QPointBatch q{x, y, z, wnx, wny, wnz};

  for (simd::VectorIsa isa : {simd::VectorIsa::Scalar, simd::VectorIsa::V128,
                              simd::VectorIsa::V256}) {
    if (!simd::isa_available(isa)) continue;
    const simd::KernelSet* k = simd::kernels(isa);
    EXPECT_EQ(k->born_integral(-h, 0.0, 0.0, q), 0.0) << k->name;
    EXPECT_EQ(k->born_integral_fast(-h, 0.0, 0.0, q), 0.0) << k->name;
  }
}

TEST(BatchKernelEdge, CriterionBoundaryPairsClassifyConsistently) {
  // born_far_enough admits the boundary (≤): (d+s) == pow·(d−s) is far.
  // Degenerate zero-radius nodes are far whenever d > 0.
  EXPECT_TRUE(core::born_far_enough(1.0, 0.0, 0.0, 1.2));
  EXPECT_FALSE(core::born_far_enough(0.0, 0.0, 0.0, 1.2));  // den == 0
  // Touching nodes (d == ra + rq): denominator zero, never far.
  EXPECT_FALSE(core::born_far_enough(3.0, 2.0, 1.0, 1e12));
  // Exact boundary: pow = (d+s)/(d−s) with d=5, s=1 → 6/4 = 1.5.
  EXPECT_TRUE(core::born_far_enough(5.0, 0.5, 0.5, 1.5));
  EXPECT_FALSE(core::born_far_enough(5.0, 0.5, 0.5,
                                     std::nextafter(1.5, 0.0)));
  // epol_far_enough is strict (>): equality is near.
  const double eps = 0.5;
  const double k = core::epol_threshold(eps);
  const double bound = (1.0 + 2.0) * std::sqrt(1.0 + 2.0 / eps);
  EXPECT_FALSE(core::epol_far_enough(bound, 1.0, 2.0, k));  // ru+rv = 3
  EXPECT_TRUE(
      core::epol_far_enough(std::nextafter(bound, 1e300), 1.0, 2.0, k));
}

TEST(BatchKernelEdge, FastExpIsHardenedAgainstNanAndOverflow) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // NaN must map to 0 (the !(t > 0) guard), never reach the float→int
  // cast, and never leak NaN downstream.
  EXPECT_EQ(core::fast_exp(nan), 0.0);
  // Deep underflow and −inf: exactly 0.
  EXPECT_EQ(core::fast_exp(-1000.0), 0.0);
  EXPECT_EQ(core::fast_exp(-inf), 0.0);
  // Overflow (beyond the ~709 usable range) and +inf: clamp to +inf
  // instead of a UB cast of a value ≥ 2^63.
  EXPECT_EQ(core::fast_exp(1000.0), inf);
  EXPECT_EQ(core::fast_exp(inf), inf);
  // The usable range is untouched by the hardening: a few percent of exp.
  for (double x : {-20.0, -1.0, -0.1, 0.0, 0.1, 1.0, 20.0}) {
    const double approx = core::fast_exp(x);
    EXPECT_TRUE(std::isfinite(approx)) << "x " << x;
    EXPECT_NEAR(approx, std::exp(x), 0.05 * std::exp(x)) << "x " << x;
  }
}

TEST(BatchKernelEdge, SplitSoaRoundTrips) {
  const std::vector<geom::Vec3> pts{{1, 2, 3}, {-4, 5, -6}, {0, 0, 7}};
  std::vector<double> x(3), y(3), z(3);
  core::split_soa(pts, x, y, z);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(x[i], pts[i].x);
    EXPECT_EQ(y[i], pts[i].y);
    EXPECT_EQ(z[i], pts[i].z);
  }
}

// ---- first-order Born far term ---------------------------------------------

namespace {

/// `n` quadrature points in the unit ball about the origin with weights
/// in [0.5, 1.5] and unit normals tilted at random about `dir`, so the
/// cluster's Σ w·n stays large.
surface::Surface normal_cluster(const geom::Vec3& dir, std::size_t n,
                                std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  surface::Surface s;
  while (s.size() < n) {
    const geom::Vec3 u{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                       rng.uniform(-1.0, 1.0)};
    if (u.norm2() > 1.0) continue;
    const geom::Vec3 tilt{rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6),
                          rng.uniform(-0.6, 0.6)};
    s.positions.push_back(u);
    s.normals.push_back((dir + tilt).normalized());
    s.weights.push_back(rng.uniform(0.5, 1.5));
    s.owner_atom.push_back(0);
  }
  return s;
}

}  // namespace

TEST(BornFarField, NodeMomentsMatchDirectSumsAboutEachCentroid) {
  // rebuild_derived builds internal moments from the children's by the
  // parallel-axis shift; every node must equal the direct point sum
  // S = sym Σ w (r − c) ⊗ n about its own centroid.
  const auto surf = normal_cluster({0.0, 0.0, 1.0}, 400, 5);
  const auto tq = core::QPointsTree::build(surf, {.max_leaf_size = 8});
  ASSERT_GT(tq.tree.nodes().size(), 9u);
  for (std::uint32_t id = 0; id < tq.tree.nodes().size(); ++id) {
    const auto& n = tq.tree.node(id);
    core::NormalMoment want;
    double scale = 0.0;
    for (std::uint32_t i = n.begin; i < n.end; ++i) {
      const geom::Vec3 u = tq.tree.point(i) - n.centroid;
      const geom::Vec3 w = tq.wnormal(i);
      want.xx += u.x * w.x;
      want.yy += u.y * w.y;
      want.zz += u.z * w.z;
      want.xy += 0.5 * (u.x * w.y + u.y * w.x);
      want.xz += 0.5 * (u.x * w.z + u.z * w.x);
      want.yz += 0.5 * (u.y * w.z + u.z * w.y);
      scale += u.norm() * w.norm();
    }
    const core::NormalMoment& got = tq.node_wmoment[id];
    const double tol = 1e-12 * scale;
    EXPECT_NEAR(got.xx, want.xx, tol) << "node " << id;
    EXPECT_NEAR(got.yy, want.yy, tol) << "node " << id;
    EXPECT_NEAR(got.zz, want.zz, tol) << "node " << id;
    EXPECT_NEAR(got.xy, want.xy, tol) << "node " << id;
    EXPECT_NEAR(got.xz, want.xz, tol) << "node " << id;
    EXPECT_NEAR(got.yz, want.yz, tol) << "node " << id;
  }
}

TEST(BornFarField, FirstOrderErrorFallsAsSquareOfSizeOverDistance) {
  // One far term of a unit-radius T_Q cluster against atoms in a unit
  // ball at distance d, each atom x taking term + grad·(x − c_A) as the
  // gradient pass hands it out. Against the exact point sum, the
  // relative error falls as (s/d)² with the first-order correction and as
  // s/d for the bare monopole N·δ/r⁶: doubling d divides it by 4 and 2.
  const geom::Vec3 dir = geom::Vec3{1.0, 2.0, -2.0}.normalized();
  const auto surf = normal_cluster(dir, 300, 11);
  const auto tq = core::QPointsTree::build(surf, {.max_leaf_size = 8});
  const geom::Vec3 cq = tq.tree.node(0).centroid;
  const geom::Vec3 wn = tq.node_wnormal[0];
  const core::NormalMoment& wm = tq.node_wmoment[0];
  const QPointBatch qb =
      tq.batch(0, static_cast<std::uint32_t>(tq.num_points()));

  util::Xoshiro256 rng(23);
  std::vector<geom::Vec3> offsets;
  while (offsets.size() < 64) {
    const geom::Vec3 u{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                       rng.uniform(-1.0, 1.0)};
    if (u.norm2() <= 1.0) offsets.push_back(u);
  }

  std::vector<double> err_first, err_mono;
  for (const double d : {16.0, 32.0, 64.0, 128.0}) {
    std::vector<geom::Vec3> atoms;
    geom::Vec3 ca;
    for (const auto& u : offsets) {
      atoms.push_back(cq - dir * d + u);
      ca += atoms.back();
    }
    ca = ca / static_cast<double>(atoms.size());
    geom::Vec3 grad;
    const double term = core::born_far_term(ca, cq, wn, wm, false, grad);
    const geom::Vec3 delta = cq - ca;
    const double r2 = delta.norm2();
    const double mono = wn.dot(delta) / (r2 * r2 * r2);
    double worst_first = 0.0, worst_mono = 0.0, biggest = 0.0;
    for (const auto& x : atoms) {
      const double exact = scalar_born_integral(x.x, x.y, x.z, qb);
      worst_first = std::max(worst_first,
                             std::abs(term + grad.dot(x - ca) - exact));
      worst_mono = std::max(worst_mono, std::abs(mono - exact));
      biggest = std::max(biggest, std::abs(exact));
    }
    err_first.push_back(worst_first / biggest);
    err_mono.push_back(worst_mono / biggest);
  }
  for (std::size_t k = 0; k + 1 < err_first.size(); ++k) {
    const std::string at = "step " + std::to_string(k);
    EXPECT_LT(err_first[k], err_mono[k]) << at;
    EXPECT_NEAR(err_first[k] / err_first[k + 1], 4.0, 0.5) << at;
    EXPECT_NEAR(err_mono[k] / err_mono[k + 1], 2.0, 0.25) << at;
  }
}

// ---- degenerate molecules at every width -----------------------------------

namespace {

struct Shape {
  std::string name;
  mol::Molecule molecule;
  bool neutral = false;  ///< every charge zero
};

/// One atom, two coincident atoms, a collinear chain, a planar sheet and
/// a protein with every charge zero.
std::vector<Shape> degenerate_shapes() {
  std::vector<Shape> out;
  mol::Molecule one("one atom");
  one.add_atom({.pos = {1.0, -2.0, 0.5}, .radius = 1.7, .charge = -0.6});
  out.push_back({"one atom", one});

  mol::Molecule twin("coincident");
  twin.add_atom({.pos = {0.3, 0.3, 0.3}, .radius = 1.6, .charge = 0.4});
  twin.add_atom({.pos = {0.3, 0.3, 0.3}, .radius = 1.6, .charge = -0.9});
  out.push_back({"coincident atoms", twin});

  mol::Molecule chain("chain");
  for (int i = 0; i < 600; ++i)
    chain.add_atom({.pos = {1.4 * i, 0.0, 0.0},
                    .radius = 1.5 + 0.1 * (i % 3),
                    .charge = (i % 2 == 0 ? 0.5 : -0.35)});
  out.push_back({"collinear chain", chain});

  mol::Molecule sheet("sheet");
  for (int i = 0; i < 32; ++i)
    for (int j = 0; j < 32; ++j)
      sheet.add_atom({.pos = {1.5 * i, 1.5 * j, 0.0},
                      .radius = 1.6,
                      .charge = 0.1 * ((i + 2 * j) % 5) - 0.2});
  out.push_back({"planar sheet", sheet});

  mol::Molecule neutral =
      mol::generate_protein({.target_atoms = 400, .seed = 19});
  for (auto& atom : neutral.atoms()) atom.charge = 0.0;
  out.push_back({"zero-charge protein", neutral, true});
  return out;
}

void expect_same_phase_counters(const perf::WorkCounters& got,
                                const perf::WorkCounters& want,
                                const std::string& where) {
  EXPECT_EQ(got.born_exact, want.born_exact) << where;
  EXPECT_EQ(got.born_approx, want.born_approx) << where;
  EXPECT_EQ(got.born_visits, want.born_visits) << where;
  EXPECT_EQ(got.push_visits, want.push_visits) << where;
  EXPECT_EQ(got.push_atoms, want.push_atoms) << where;
  EXPECT_EQ(got.epol_exact, want.epol_exact) << where;
  EXPECT_EQ(got.epol_bins, want.epol_bins) << where;
  EXPECT_EQ(got.epol_visits, want.epol_visits) << where;
}

}  // namespace

/// Every degenerate shape at every runnable width: finite radii and
/// energy, the width-1 run's work counters exactly, its radii to 1e-9 and
/// its Epol to 1e-6 relative, Epol exactly 0 when every charge is zero,
/// and the same bits at 1, 2 and 4 workers as serially.
TEST(KernelDiff, DegenerateMoleculesAgreeAcrossWidths) {
  for (const Shape& shape : degenerate_shapes()) {
    const surface::Surface surf = surface::build_surface(shape.molecule);
    ASSERT_GT(surf.size(), 0u) << shape.name;
    EnergyResult width1;
    for (simd::VectorIsa isa : {simd::VectorIsa::Scalar, simd::VectorIsa::V128,
                                simd::VectorIsa::V256}) {
      if (!simd::isa_available(isa)) continue;
      const std::string where =
          shape.name + " isa " + std::to_string(static_cast<int>(isa));
      EngineConfig cfg;
      cfg.approx.vector = {isa};
      const GBEngine engine(shape.molecule, surf, cfg);
      const EnergyResult r = engine.compute();
      ASSERT_EQ(r.born.size(), shape.molecule.size()) << where;
      EXPECT_TRUE(std::isfinite(r.epol)) << where;
      for (std::size_t i = 0; i < r.born.size(); ++i)
        EXPECT_TRUE(std::isfinite(r.born[i]) && r.born[i] > 0.0)
            << where << " atom " << i;
      if (shape.neutral) {
        EXPECT_EQ(r.epol, 0.0) << where;
      }
      for (int workers : {1, 2, 4}) {
        ws::Scheduler sched(workers);
        const EnergyResult rw = engine.compute(&sched);
        EXPECT_EQ(rw.epol, r.epol) << where << " workers " << workers;
        EXPECT_EQ(rw.born, r.born) << where << " workers " << workers;
        expect_same_phase_counters(rw.work, r.work,
                                   where + " workers " +
                                       std::to_string(workers));
      }
      if (isa == simd::VectorIsa::Scalar) {
        width1 = r;
        continue;
      }
      expect_same_phase_counters(r.work, width1.work, where);
      for (std::size_t i = 0; i < r.born.size(); ++i)
        EXPECT_LT(rel_diff(r.born[i], width1.born[i]), 1e-9)
            << where << " atom " << i;
      EXPECT_LT(rel_diff(r.epol, width1.epol), 1e-6) << where;
    }
  }
}
