// Differential tests guarding the batched SoA near-field kernels: the
// batched path must agree with the scalar path up to floating-point
// reassociation at every level (raw kernel, octree engine, dual
// traversal, naive reference), and the batched-by-default octree energy
// must stay inside the paper's (1+ε) approximation bound against the
// naive reference. Also pins down the kernels' edge-case contracts:
// empty/single-point batches, the branchless |r−a| < 1e-6 skip, and the
// self-term inclusion of batch_epol_sum.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "octgb/core/batch_kernels.hpp"
#include "octgb/core/born.hpp"
#include "octgb/core/engine.hpp"
#include "octgb/core/fastmath.hpp"
#include "octgb/core/naive.hpp"
#include "octgb/mol/generate.hpp"
#include "octgb/simd/dispatch.hpp"
#include "octgb/surface/surface.hpp"

using namespace octgb;
using core::AtomBatch;
using core::EngineConfig;
using core::GBEngine;
using core::KernelKind;
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

/// Scalar reference for batch_born_integral (the born.cpp leaf loop).
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

/// Scalar reference for batch_epol_sum (the epol.cpp leaf loop).
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

// ---- randomized batched-vs-scalar agreement ------------------------------

TEST(KernelDiff, RawBornKernelMatchesScalarOnRealLeaves) {
  for (std::uint64_t seed : {1, 7, 23}) {
    const Problem p(300, seed);
    GBEngine engine(p.molecule, p.surf);
    const auto& ta = engine.atoms_tree();
    const auto& tq = engine.qpoints_tree();
    for (std::uint32_t q_id : tq.tree.leaf_ids()) {
      const QPointBatch qb = tq.node_batch(tq.tree.node(q_id));
      for (std::size_t ai = 0; ai < std::min<std::size_t>(ta.num_atoms(), 64);
           ++ai) {
        const double batched = core::batch_born_integral(
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
      const AtomBatch ub = ta.node_batch(u, born_tree);
      const std::uint32_t vi = ta.tree.node(leaves[(li + 1) % leaves.size()])
                                   .begin;
      const double batched =
          core::batch_epol_sum(ta.soa_x()[vi], ta.soa_y()[vi], ta.soa_z()[vi],
                               ta.charge[vi], born_tree[vi], ub);
      const double scalar =
          scalar_epol_sum(ta.soa_x()[vi], ta.soa_y()[vi], ta.soa_z()[vi],
                          ta.charge[vi], born_tree[vi], ub);
      EXPECT_NEAR(batched, scalar, 1e-10 * (1.0 + std::abs(scalar)))
          << "seed " << seed << " leaf " << leaves[li];
    }
  }
}

/// Whole-engine differential sweep over many random molecules: identical
/// traversal decisions, sums differing only by reassociation.
TEST(KernelDiff, EngineBatchedMatchesScalarManySeeds) {
  for (std::uint64_t seed : {3, 5, 17, 29, 41, 53}) {
    const Problem p(250 + 40 * (seed % 5), seed);
    EngineConfig scalar_cfg;
    scalar_cfg.approx.kernel = KernelKind::Scalar;
    EngineConfig batched_cfg;
    batched_cfg.approx.kernel = KernelKind::Batched;
    const auto rs = GBEngine(p.molecule, p.surf, scalar_cfg).compute();
    const auto rb = GBEngine(p.molecule, p.surf, batched_cfg).compute();
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
  EngineConfig scalar_cfg;
  scalar_cfg.approx.kernel = KernelKind::Scalar;
  EngineConfig batched_cfg;
  batched_cfg.approx.kernel = KernelKind::Batched;
  const auto rs = GBEngine(p.molecule, p.surf, scalar_cfg).compute_dual();
  const auto rb = GBEngine(p.molecule, p.surf, batched_cfg).compute_dual();
  for (std::size_t i = 0; i < rs.born.size(); ++i)
    EXPECT_LT(rel_diff(rb.born[i], rs.born[i]), 1e-9) << "atom " << i;
  EXPECT_LT(rel_diff(rb.epol, rs.epol), 1e-6);
}

TEST(KernelDiff, NaiveBatchedMatchesScalar) {
  for (std::uint64_t seed : {4, 19}) {
    const Problem p(300, seed);
    const auto born_s =
        core::naive_born_radii(p.molecule, p.surf, nullptr,
                               KernelKind::Scalar);
    const auto born_b =
        core::naive_born_radii(p.molecule, p.surf, nullptr,
                               KernelKind::Batched);
    ASSERT_EQ(born_s.size(), born_b.size());
    for (std::size_t i = 0; i < born_s.size(); ++i)
      EXPECT_LT(rel_diff(born_b[i], born_s[i]), 1e-9) << "atom " << i;
    const double es = core::naive_epol(p.molecule, born_s, {}, nullptr,
                                       KernelKind::Scalar);
    const double eb = core::naive_epol(p.molecule, born_s, {}, nullptr,
                                       KernelKind::Batched);
    EXPECT_LT(rel_diff(eb, es), 1e-10) << "seed " << seed;
  }
}

/// The §V-C approximate-math mode must vectorize too: the batched fastmath
/// kernels use the same per-term fast_rsqrt/fast_exp as the scalar
/// approximate path, so batched-fast vs scalar-fast is again pure
/// reassociation.
TEST(KernelDiff, FastmathBatchedMatchesFastmathScalar) {
  const Problem p(350, 37);
  EngineConfig scalar_cfg;
  scalar_cfg.approx.approx_math = true;
  scalar_cfg.approx.kernel = KernelKind::Scalar;
  EngineConfig batched_cfg;
  batched_cfg.approx.approx_math = true;
  batched_cfg.approx.kernel = KernelKind::Batched;
  const auto rs = GBEngine(p.molecule, p.surf, scalar_cfg).compute();
  const auto rb = GBEngine(p.molecule, p.surf, batched_cfg).compute();
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
    const auto naive_born = core::naive_born_radii(
        p.molecule, p.surf, nullptr, KernelKind::Scalar);
    const double naive_e = core::naive_epol(p.molecule, naive_born, {},
                                            nullptr, KernelKind::Scalar);
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
  const QPointBatch empty_q{};
  EXPECT_EQ(core::batch_born_integral(1.0, 2.0, 3.0, empty_q), 0.0);
  EXPECT_EQ(core::batch_born_integral_fast(1.0, 2.0, 3.0, empty_q), 0.0);
  const AtomBatch empty_a{};
  EXPECT_EQ(core::batch_epol_sum(1.0, 2.0, 3.0, 0.5, 1.5, empty_a), 0.0);
  EXPECT_EQ(core::batch_epol_sum_fast(1.0, 2.0, 3.0, 0.5, 1.5, empty_a),
            0.0);
}

TEST(BatchKernelEdge, SinglePointBatchMatchesClosedForm) {
  const std::vector<double> x{3.0}, y{0.0}, z{0.0};
  const std::vector<double> wnx{0.25}, wny{0.0}, wnz{0.0};
  const QPointBatch q{x, y, z, wnx, wny, wnz};
  // Atom at origin: delta = (3,0,0), r² = 9, w·n·delta = 0.75.
  EXPECT_NEAR(core::batch_born_integral(0.0, 0.0, 0.0, q), 0.75 / 729.0,
              1e-15);

  const std::vector<double> charge{-0.7}, born{2.0};
  const AtomBatch a{x, y, z, charge, born};
  const double expect = 0.4 * -0.7 / core::f_gb(9.0, 2.0 * 1.5);
  EXPECT_NEAR(core::batch_epol_sum(0.0, 0.0, 0.0, 0.4, 1.5, a), expect,
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
  const double sum = core::batch_born_integral(1.0, 2.0, 3.0, q);
  EXPECT_TRUE(std::isfinite(sum));
  EXPECT_NEAR(sum, 0.5 * 3.0 / std::pow(9.0, 3.0), 1e-15);
  const double fast_sum = core::batch_born_integral_fast(1.0, 2.0, 3.0, q);
  EXPECT_TRUE(std::isfinite(fast_sum));
  EXPECT_NEAR(fast_sum, sum, 1e-4 * sum);  // fast_rsqrt ≈ 5e-6, ^6 ≈ 3e-5
  // A point just *outside* the guard must contribute (the guard is a
  // coincidence skip, not a near-field cutoff).
  const std::vector<double> x2{1.0 + 2e-6}, y2{2.0}, z2{3.0};
  const std::vector<double> wnx2{1.0}, wny2{0.0}, wnz2{0.0};
  EXPECT_GT(core::batch_born_integral(1.0, 2.0, 3.0,
                                      {x2, y2, z2, wnx2, wny2, wnz2}),
            0.0);
}

TEST(BatchKernelEdge, EpolSelfTermIsIncludedByContract) {
  // A batch containing the query atom itself: the r = 0 diagonal term is
  // q_v² / f_GB(0, R_v²) = q_v² / R_v, NOT skipped. Callers that want it
  // excluded must slice the batch; the octree kernels keep it by design.
  const std::vector<double> x{1.0}, y{-2.0}, z{0.5};
  const std::vector<double> charge{0.8}, born{1.7};
  const AtomBatch self{x, y, z, charge, born};
  EXPECT_NEAR(core::batch_epol_sum(1.0, -2.0, 0.5, 0.8, 1.7, self),
              0.8 * 0.8 / 1.7, 1e-14);
  // fast_exp(0) undershoots 1 by a few percent (Schraudolph), so the fast
  // self term carries that error through sqrt — allow the §V-C band.
  EXPECT_NEAR(core::batch_epol_sum_fast(1.0, -2.0, 0.5, 0.8, 1.7, self),
              0.8 * 0.8 / 1.7, 0.05 * 0.8 * 0.8 / 1.7);
}

TEST(BatchKernelEdge, BornFarTermCoincidentCentroidsContributeZero) {
  // The admissibility criterion never admits d = 0, but direct calls and
  // degenerate single-point geometry can produce coincident (or NaN)
  // centroids; the far term must yield 0, not ±inf or NaN.
  const geom::Vec3 c{1.0, -2.0, 3.0};
  const geom::Vec3 wn{5.0, 7.0, -1.0};
  EXPECT_EQ(core::born_far_term(c, c, wn, /*approx_math=*/false), 0.0);
  EXPECT_EQ(core::born_far_term(c, c, wn, /*approx_math=*/true), 0.0);
  // Inside the r² ≤ 1e-12 coincidence band: still zero.
  const geom::Vec3 near_c{1.0 + 1e-7, -2.0, 3.0};
  EXPECT_EQ(core::born_far_term(c, near_c, wn, false), 0.0);
  // NaN centroid (poisoned upstream geometry) must not leak NaN into the
  // node partial.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(core::born_far_term(c, {nan, 0.0, 0.0}, wn, false), 0.0);
  // Just outside the band: a genuine (huge but finite) contribution.
  const geom::Vec3 out_c{1.0 + 2e-6, -2.0, 3.0};
  const double t = core::born_far_term(c, out_c, wn, false);
  EXPECT_TRUE(std::isfinite(t));
  EXPECT_GT(t, 0.0);
}

TEST(BatchKernelEdge, ScalarBornPairSkipsCoincidentQPoints) {
  // A q-point exactly on the atom and one inside the guard band must be
  // skipped; a zero-weight q-point outside the band contributes exactly 0
  // without perturbing the sum.
  const mol::Molecule m = mol::generate_protein({.target_atoms = 40,
                                                 .seed = 9});
  const surface::Surface s = surface::build_surface(m, {.subdivision = 0});
  core::EngineConfig cfg;
  GBEngine engine(m, s, cfg);
  const auto& tq = engine.qpoints_tree();
  const auto q_pts = tq.tree.points();
  // Query placed exactly on the first q-point of the full range.
  const double v = core::scalar_born_pair(
      q_pts[0], tq, 0, static_cast<std::uint32_t>(tq.num_points()), false);
  EXPECT_TRUE(std::isfinite(v));
  const double vf = core::scalar_born_pair(
      q_pts[0], tq, 0, static_cast<std::uint32_t>(tq.num_points()), true);
  EXPECT_TRUE(std::isfinite(vf));
}

TEST(BatchKernelEdge, GuardBoundaryIsSkippedByEveryBornKernel) {
  // The coincidence guard skips r² ≤ 1e-12 on every path. A q-point at
  // the origin and an atom at (−h, 0, 0) give a computed r² of h·h; pick
  // h so that this is exactly the double 1e-12. The AoS pair, the batch
  // kernels and every runnable vector table must all skip the point.
  double h = 0.0;
  double lo = 1e-6, hi = 1e-6;
  for (int i = 0; i < 64 && h == 0.0; ++i) {
    if (lo * lo == 1e-12) h = lo;
    else if (hi * hi == 1e-12) h = hi;
    lo = std::nextafter(lo, 0.0);
    hi = std::nextafter(hi, 1.0);
  }
  ASSERT_NE(h, 0.0) << "no double h near 1e-6 with h*h == 1e-12";

  surface::Surface s;
  s.positions = {{0.0, 0.0, 0.0}};
  s.normals = {{1.0, 0.0, 0.0}};
  s.weights = {1.0};
  s.owner_atom = {0};
  const core::QPointsTree tq = core::QPointsTree::build(s);
  const geom::Vec3 pa{-h, 0.0, 0.0};
  ASSERT_EQ((tq.tree.points()[0] - pa).norm2(), 1e-12);

  // 17 copies: a vector body at every width plus a scalar tail.
  const std::vector<double> x(17, 0.0), y(17, 0.0), z(17, 0.0);
  const std::vector<double> wnx(17, 1.0), wny(17, 0.0), wnz(17, 0.0);
  const QPointBatch q{x, y, z, wnx, wny, wnz};

  for (bool fast : {false, true}) {
    EXPECT_EQ(core::scalar_born_pair(pa, tq, 0, 1, fast), 0.0) << fast;
    const double b = fast ? core::batch_born_integral_fast(pa.x, 0.0, 0.0, q)
                          : core::batch_born_integral(pa.x, 0.0, 0.0, q);
    EXPECT_EQ(b, 0.0) << fast;
  }
  for (simd::VectorIsa isa : {simd::VectorIsa::V128, simd::VectorIsa::V256}) {
    if (!simd::isa_available(isa)) continue;
    const simd::KernelSet* k = simd::kernels(isa);
    EXPECT_EQ(k->born_integral(pa.x, 0.0, 0.0, q), 0.0) << k->name;
    EXPECT_EQ(k->born_integral_fast(pa.x, 0.0, 0.0, q), 0.0) << k->name;
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
  const double bound = (1.0 + 2.0) * (1.0 + 2.0 / eps);  // ru+rv = 3
  EXPECT_FALSE(core::epol_far_enough(bound, 1.0, 2.0, eps));
  EXPECT_TRUE(
      core::epol_far_enough(std::nextafter(bound, 1e300), 1.0, 2.0, eps));
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
