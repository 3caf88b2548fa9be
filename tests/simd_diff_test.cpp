// Width differential test matrix for the explicit vector layer
// (octgb/simd/, DESIGN.md §2.7). Every compiled-and-runnable width is
// driven over generator-built spans of every remainder shape (lengths
// 1 .. 8·maxlanes+3, several base-pointer offsets) and checked
// against the scalar reference kernels in core/batch_kernels:
//
//   · double kernels agree up to reassociation (ε-bounds) and are
//     bitwise-stable across repeated runs;
//   · spans shorter than one vector run the pure scalar tail, which is
//     bit-identical to the reference kernel (x86-64, where the core TU's
//     baseline has no FMA to contract — the SIMD TUs are compiled with
//     -ffp-contract=off to match);
//   · the splice property: vec(span) == vec(aligned prefix) followed by
//     per-element reference accumulation of the tail, bit for bit;
//   · the bin-pair far-field kernel reproduces the scalar skip-zeros loop
//     including its exact binpair count;
//   · denormal, huge, coincident, and zero-weight inputs stay finite
//     (this test runs under ASan/UBSan in the CI simd-matrix job);
//   · engine-level: every width agrees with the Scalar vector path and
//     never flips a near/far classification (the engine work counters
//     are width-invariant), warm plan replay stays bitwise, and a width
//     switch repopulates the Born cache instead of serving stale radii.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "octgb/core/batch_kernels.hpp"
#include "octgb/core/engine.hpp"
#include "octgb/core/fastmath.hpp"
#include "octgb/core/gb_params.hpp"
#include "octgb/geom/vec3.hpp"
#include "octgb/mol/generate.hpp"
#include "octgb/simd/dispatch.hpp"
#include "octgb/simd/types.hpp"
#include "octgb/surface/surface.hpp"
#include "octgb/util/rng.hpp"

using namespace octgb;
using core::AtomBatch;
using core::EvalScratch;
using core::GBEngine;
using core::QPointBatch;
using simd::KernelSet;
using simd::VectorIsa;
using simd::VectorParams;

namespace {

/// Longest span shape the matrix covers: 8 full vectors of the widest
/// build (4 double lanes) plus a 3-element remainder.
constexpr std::size_t kMaxSpan = 8 * 4 + 3;
/// Base offsets into the backing arrays: exercise every distinct
/// (unaligned) load alignment a 4-lane vector can see.
constexpr std::size_t kOffsets[] = {0, 1, 3, 5};

const VectorIsa kWidths[] = {VectorIsa::V128, VectorIsa::V256};

/// Deterministic random SoA planes backing every span in the matrix.
struct SpanData {
  std::vector<double> x, y, z, wnx, wny, wnz, charge, born;

  explicit SpanData(std::uint64_t seed, std::size_t n = kMaxSpan + 8) {
    util::Xoshiro256 rng(seed);
    const auto fill = [&](std::vector<double>& v, double lo, double hi) {
      v.resize(n);
      for (auto& e : v) e = rng.uniform(lo, hi);
    };
    fill(x, -8.0, 8.0);
    fill(y, -8.0, 8.0);
    fill(z, -8.0, 8.0);
    fill(wnx, -0.5, 0.5);
    fill(wny, -0.5, 0.5);
    fill(wnz, -0.5, 0.5);
    fill(charge, -1.0, 1.0);
    fill(born, 1.0, 3.0);
  }

  QPointBatch qspan(std::size_t off, std::size_t len) const {
    return {std::span(x).subspan(off, len), std::span(y).subspan(off, len),
            std::span(z).subspan(off, len),
            std::span(wnx).subspan(off, len),
            std::span(wny).subspan(off, len),
            std::span(wnz).subspan(off, len)};
  }
  AtomBatch aspan(std::size_t off, std::size_t len) const {
    return {std::span(x).subspan(off, len), std::span(y).subspan(off, len),
            std::span(z).subspan(off, len),
            std::span(charge).subspan(off, len),
            std::span(born).subspan(off, len)};
  }
};

/// Reference for the far-bins kernel: the scalar skip-zeros double loop
/// of EpolPass::far_field's node path (epol.cpp).
double far_bins_ref(const double* ub, int ulo, int uhi, const double* rep_u,
                    const double* vb, int vlo, int vhi, const double* rep_v,
                    double d2, bool fast, std::uint64_t& binpairs) {
  double sum = 0.0;
  for (int i = ulo; i <= uhi; ++i) {
    if (ub[i] == 0.0) continue;
    for (int j = vlo; j <= vhi; ++j) {
      if (vb[j] == 0.0) continue;
      const double rr = rep_u[i] * rep_v[j];
      if (fast) {
        const double f2 = d2 + rr * core::fast_exp(-d2 / (4.0 * rr));
        sum += ub[i] * vb[j] * core::fast_rsqrt(f2);
      } else {
        sum += ub[i] * vb[j] / core::f_gb(d2, rr);
      }
      ++binpairs;
    }
  }
  return sum;
}

struct Problem {
  mol::Molecule molecule;
  surface::Surface surf;
  explicit Problem(std::size_t atoms, std::uint64_t seed = 77)
      : molecule(mol::generate_protein({.target_atoms = atoms, .seed = seed})),
        surf(surface::build_surface(molecule, {.subdivision = 1})) {}
};

double rel_diff(double a, double b) {
  return std::abs(a - b) / std::max(1e-300, std::abs(b));
}

/// The available subset of kWidths; empty on exotic builds where only the
/// Scalar path exists (every matrix test degrades to a no-op then, which
/// is exactly the portable-fallback contract).
std::vector<VectorIsa> available_widths() {
  std::vector<VectorIsa> out;
  for (VectorIsa isa : kWidths)
    if (simd::isa_available(isa)) out.push_back(isa);
  return out;
}

}  // namespace

// ---- dispatch resolution --------------------------------------------------

TEST(SimdDispatch, ResolutionIsIdempotentAndConcrete) {
  // Auto resolves to a concrete available width (possibly Scalar), and
  // resolving an already-resolved request is a fixed point.
  const VectorIsa r = simd::resolve_isa(VectorIsa::Auto);
  EXPECT_NE(r, VectorIsa::Auto);
  EXPECT_TRUE(r == VectorIsa::Scalar || simd::isa_available(r));
  EXPECT_EQ(simd::resolve_isa(r), r);
  // An explicit unavailable width clamps down to something runnable.
  for (VectorIsa isa : kWidths) {
    const VectorIsa c = simd::resolve_isa(isa);
    EXPECT_TRUE(c == VectorIsa::Scalar || simd::isa_available(c));
    EXPECT_LE(static_cast<int>(c), static_cast<int>(isa));
  }
  // Scalar is always available and always resolves to itself.
  EXPECT_EQ(simd::resolve_isa(VectorIsa::Scalar), VectorIsa::Scalar);
  EXPECT_FALSE(simd::isa_available(VectorIsa::Auto));
  const VectorParams m = simd::resolve({VectorIsa::Auto});
  EXPECT_EQ(m.isa, r);
}

TEST(SimdDispatch, AutoIsTheWidestAvailableWidth) {
  // No width is held back: Auto takes the widest width this build
  // compiled and this CPU runs, the same one an explicit request for the
  // widest compiled width clamps to.
  VectorIsa widest = VectorIsa::Scalar;
  for (VectorIsa isa : kWidths)
    if (simd::isa_available(isa)) widest = isa;
  EXPECT_EQ(simd::resolve_isa(VectorIsa::Auto), widest);
  EXPECT_EQ(simd::resolve_isa(simd::max_built_isa()), widest);
}

TEST(SimdDispatch, ScalarHasNoTableAndWidthsAreConsistent) {
  EXPECT_EQ(simd::kernels(VectorIsa::Scalar), nullptr);
  EXPECT_EQ(simd::lanes(VectorIsa::Scalar), 0);
  const int want_lanes[] = {2, 4};
  for (std::size_t i = 0; i < 2; ++i) {
    if (!simd::isa_available(kWidths[i])) continue;
    const KernelSet* ks = simd::kernels(kWidths[i]);
    ASSERT_NE(ks, nullptr);
    EXPECT_EQ(ks->lanes, want_lanes[i]);
    EXPECT_EQ(simd::lanes(kWidths[i]), want_lanes[i]);
    EXPECT_STREQ(simd::isa_name(kWidths[i]), ks->name);
    // Every table entry must be populated.
    EXPECT_NE(ks->born_integral, nullptr);
    EXPECT_NE(ks->born_integral_fast, nullptr);
    EXPECT_NE(ks->epol_sum, nullptr);
    EXPECT_NE(ks->epol_sum_fast, nullptr);
    EXPECT_NE(ks->epol_far_bins, nullptr);
    EXPECT_NE(ks->epol_far_bins_fast, nullptr);
  }
}

// ---- the width × shape matrix ----------------------------------------------

TEST(SimdMatrix, BornKernelsMatchReferenceAcrossEveryShape) {
  const SpanData data(101);
  const double ax = 0.4, ay = -0.3, az = 0.2;
  for (VectorIsa isa : available_widths()) {
    const KernelSet* ks = simd::kernels(isa);
    ASSERT_NE(ks, nullptr);
    for (std::size_t off : kOffsets) {
      for (std::size_t len = 1; len <= kMaxSpan; ++len) {
        const QPointBatch q = data.qspan(off, len);
        const double ref = core::batch_born_integral(ax, ay, az, q);
        const double got = ks->born_integral(ax, ay, az, q);
        EXPECT_NEAR(got, ref, 1e-9 * (1.0 + std::abs(ref)))
            << ks->name << " off " << off << " len " << len;
        // Bitwise-stable: re-running the same span gives the same bits.
        EXPECT_EQ(got, ks->born_integral(ax, ay, az, q))
            << ks->name << " off " << off << " len " << len;

        const double ref_fast =
            core::batch_born_integral_fast(ax, ay, az, q);
        const double got_fast = ks->born_integral_fast(ax, ay, az, q);
        EXPECT_NEAR(got_fast, ref_fast, 1e-9 * (1.0 + std::abs(ref_fast)))
            << ks->name << " off " << off << " len " << len;
        EXPECT_EQ(got_fast, ks->born_integral_fast(ax, ay, az, q));
      }
    }
  }
}

TEST(SimdMatrix, EpolKernelsMatchReferenceAcrossEveryShape) {
  const SpanData data(202);
  const double vx = 0.7, vy = 0.1, vz = -0.6, qv = 0.8, rv = 1.9;
  for (VectorIsa isa : available_widths()) {
    const KernelSet* ks = simd::kernels(isa);
    for (std::size_t off : kOffsets) {
      for (std::size_t len = 1; len <= kMaxSpan; ++len) {
        const AtomBatch a = data.aspan(off, len);
        const double ref = core::batch_epol_sum(vx, vy, vz, qv, rv, a);
        const double got = ks->epol_sum(vx, vy, vz, qv, rv, a);
        // The vector body's exp_pd differs from libm by ≈1 ulp per term,
        // so this is an ε-bound, not reassociation-only.
        EXPECT_NEAR(got, ref, 1e-9 * (1.0 + std::abs(ref)))
            << ks->name << " off " << off << " len " << len;
        EXPECT_EQ(got, ks->epol_sum(vx, vy, vz, qv, rv, a));

        const double ref_fast =
            core::batch_epol_sum_fast(vx, vy, vz, qv, rv, a);
        const double got_fast = ks->epol_sum_fast(vx, vy, vz, qv, rv, a);
        EXPECT_NEAR(got_fast, ref_fast,
                    1e-9 * (1.0 + std::abs(ref_fast)))
            << ks->name << " off " << off << " len " << len;
        EXPECT_EQ(got_fast, ks->epol_sum_fast(vx, vy, vz, qv, rv, a));
      }
    }
  }
}

// ---- remainder-lane properties (satellite: bitwise tails) -----------------

// The tail claims below are exact only where the reference kernels compile
// without FMA contraction — guaranteed on x86-64, where the core library's
// baseline ISA has no FMA instruction (see DESIGN.md §2.7).
#if defined(__x86_64__) || defined(_M_X64)

TEST(SimdRemainder, SubVectorSpansAreBitwiseTheReferenceKernel) {
  const SpanData data(303);
  const double ax = -0.2, ay = 0.9, az = 0.5;
  const double vx = 0.3, vy = -0.8, vz = 0.1, qv = -0.6, rv = 2.2;
  for (VectorIsa isa : available_widths()) {
    const KernelSet* ks = simd::kernels(isa);
    const std::size_t lanes = static_cast<std::size_t>(ks->lanes);
    for (std::size_t off : kOffsets) {
      for (std::size_t len = 1; len < lanes; ++len) {
        const QPointBatch q = data.qspan(off, len);
        EXPECT_EQ(ks->born_integral(ax, ay, az, q),
                  core::batch_born_integral(ax, ay, az, q))
            << ks->name << " off " << off << " len " << len;
        EXPECT_EQ(ks->born_integral_fast(ax, ay, az, q),
                  core::batch_born_integral_fast(ax, ay, az, q))
            << ks->name << " off " << off << " len " << len;
        const AtomBatch a = data.aspan(off, len);
        EXPECT_EQ(ks->epol_sum(vx, vy, vz, qv, rv, a),
                  core::batch_epol_sum(vx, vy, vz, qv, rv, a))
            << ks->name << " off " << off << " len " << len;
        EXPECT_EQ(ks->epol_sum_fast(vx, vy, vz, qv, rv, a),
                  core::batch_epol_sum_fast(vx, vy, vz, qv, rv, a))
            << ks->name << " off " << off << " len " << len;
      }
    }
  }
}

TEST(SimdRemainder, SpliceVectorPrefixPlusScalarTailIsBitwise) {
  // vec(span) must equal vec(aligned prefix) followed by sequential
  // per-element reference accumulation of the tail — the reduction
  // completes before the tail runs, so the split is observable from
  // outside. Epol uses qv = 1 (qv scales the total, which would break
  // term-by-term splicing for qv ≠ 1).
  const SpanData data(404);
  const double ax = 0.1, ay = 0.2, az = -0.4;
  const double vx = -0.5, vy = 0.6, vz = 0.3, rv = 1.4;
  for (VectorIsa isa : available_widths()) {
    const KernelSet* ks = simd::kernels(isa);
    const std::size_t lanes = static_cast<std::size_t>(ks->lanes);
    for (std::size_t len = 1; len <= 4 * lanes + 3; ++len) {
      const std::size_t prefix = (len / lanes) * lanes;
      {
        double acc = ks->born_integral(ax, ay, az, data.qspan(0, prefix));
        for (std::size_t k = prefix; k < len; ++k)
          acc += core::batch_born_integral(ax, ay, az, data.qspan(k, 1));
        EXPECT_EQ(ks->born_integral(ax, ay, az, data.qspan(0, len)), acc)
            << ks->name << " len " << len;
      }
      {
        double acc =
            ks->epol_sum(vx, vy, vz, 1.0, rv, data.aspan(0, prefix));
        for (std::size_t k = prefix; k < len; ++k)
          acc += core::batch_epol_sum(vx, vy, vz, 1.0, rv,
                                      data.aspan(k, 1));
        EXPECT_EQ(ks->epol_sum(vx, vy, vz, 1.0, rv, data.aspan(0, len)),
                  acc)
            << ks->name << " len " << len;
      }
    }
  }
}

#endif  // x86-64

// ---- far-field bin-pair kernel --------------------------------------------

TEST(SimdFarBins, MatchesScalarLoopAndCountsExactly) {
  util::Xoshiro256 rng(505);
  for (VectorIsa isa : available_widths()) {
    const KernelSet* ks = simd::kernels(isa);
    for (int trial = 0; trial < 24; ++trial) {
      const int nbins = 1 + static_cast<int>(rng.uniform(0.0, 40.0));
      std::vector<double> ub(nbins, 0.0), vb(nbins, 0.0);
      std::vector<double> rep(nbins);
      for (int k = 0; k < nbins; ++k) {
        rep[k] = 1.0 * std::exp(0.05 * (k + 0.5));
        // ~40 % zero bins on each side, mirroring sparse charge tables.
        if (rng.uniform(0.0, 1.0) > 0.4) ub[k] = rng.uniform(-2.0, 2.0);
        if (rng.uniform(0.0, 1.0) > 0.4) vb[k] = rng.uniform(-2.0, 2.0);
      }
      const int ulo = trial % nbins, uhi = nbins - 1;
      const int vlo = 0, vhi = nbins - 1 - (trial % 3);
      const double d2 = rng.uniform(50.0, 5000.0);
      for (bool fast : {false, true}) {
        std::uint64_t pairs_ref = 0, pairs_got = 0;
        const double ref =
            far_bins_ref(ub.data(), ulo, uhi, rep.data(), vb.data(), vlo,
                         vhi, rep.data(), d2, fast, pairs_ref);
        const auto fn = fast ? ks->epol_far_bins_fast : ks->epol_far_bins;
        const double got = fn(ub.data(), ulo, uhi, rep.data(), vb.data(),
                              vlo, vhi, rep.data(), d2, pairs_got);
        EXPECT_NEAR(got, ref, 1e-10 * (1.0 + std::abs(ref)))
            << ks->name << " trial " << trial << " fast " << fast;
        // The work accounting must be width-invariant to the bit.
        EXPECT_EQ(pairs_got, pairs_ref)
            << ks->name << " trial " << trial << " fast " << fast;
        std::uint64_t again = 0;
        EXPECT_EQ(got, fn(ub.data(), ulo, uhi, rep.data(), vb.data(), vlo,
                          vhi, rep.data(), d2, again));
      }
    }
    // Empty ranges: no sum, no pairs.
    std::uint64_t pairs = 0;
    const double one = 1.0;
    EXPECT_EQ(ks->epol_far_bins(&one, 1, 0, &one, &one, 0, 0, &one, 100.0,
                                pairs),
              0.0);
    EXPECT_EQ(pairs, 0u);
  }
}

// ---- edge inputs ----------------------------------------------------------

TEST(SimdEdge, CoincidentDenormalAndHugeInputsStayFinite) {
  // A span mixing: the query point itself (r = 0), a point inside the
  // double guard band, denormal weights, and a huge-coordinate outlier.
  // Both vector and reference kernels must agree and stay finite; under
  // UBSan this also proves the lanes never divide by zero on masked terms.
  const double ax = 1.0, ay = 2.0, az = 3.0;
  const double denorm = std::numeric_limits<double>::denorm_min();
  std::vector<double> x{ax, ax + 1e-7, 4.0, 1e12, ax + 2e-6, -7.0, 5.5,
                        8.0, -3.0},
      y{ay, ay, 2.0, -1e12, ay, 4.0, -2.5, 1.0, 6.0},
      z{az, az, 2.0, 1e12, az, 1.0, 0.5, -4.0, 2.0};
  std::vector<double> wnx{5.0, 5.0, 0.5, 0.1, denorm, 0.2, -0.3, 0.4, 0.1},
      wny(9, 0.0), wnz(9, 0.0);
  const QPointBatch q{x, y, z, wnx, wny, wnz};
  const double ref = core::batch_born_integral(ax, ay, az, q);
  ASSERT_TRUE(std::isfinite(ref));
  for (VectorIsa isa : available_widths()) {
    const KernelSet* ks = simd::kernels(isa);
    const double got = ks->born_integral(ax, ay, az, q);
    EXPECT_TRUE(std::isfinite(got)) << ks->name;
    EXPECT_NEAR(got, ref, 1e-9 * (1.0 + std::abs(ref))) << ks->name;
    EXPECT_TRUE(std::isfinite(ks->born_integral_fast(ax, ay, az, q)))
        << ks->name;
  }
}

TEST(SimdEdge, EpolSelfTermAndExtremeRadiiStayFinite) {
  // The GB pair sum has no coincidence guard by contract (f² ≥ d·e > 0);
  // feed it the self term, near-coincident pairs, and extreme-but-positive
  // radii and distances, and require every width to stay finite and agree
  // with the reference.
  const double vx = 1.0, vy = -2.0, vz = 0.5;
  std::vector<double> x{vx, vx + 1e-8, 500.0, vx + 1e-3, -300.0},
      y{vy, vy, 0.0, vy, 200.0}, z{vz, vz, 0.0, vz, -100.0};
  std::vector<double> charge{0.8, -0.5, 1.0, 0.3, -1.0};
  std::vector<double> born{1.7, 0.05, 40.0, 1.0, 2.0};
  const AtomBatch a{x, y, z, charge, born};
  const double ref = core::batch_epol_sum(vx, vy, vz, 0.8, 1.7, a);
  ASSERT_TRUE(std::isfinite(ref));
  for (VectorIsa isa : available_widths()) {
    const KernelSet* ks = simd::kernels(isa);
    const double got = ks->epol_sum(vx, vy, vz, 0.8, 1.7, a);
    EXPECT_TRUE(std::isfinite(got)) << ks->name;
    EXPECT_NEAR(got, ref, 1e-9 * (1.0 + std::abs(ref))) << ks->name;
    EXPECT_TRUE(std::isfinite(ks->epol_sum_fast(vx, vy, vz, 0.8, 1.7, a)))
        << ks->name;
  }
}

// ---- engine-level matrix --------------------------------------------------

TEST(SimdEngine, EveryWidthAgreesWithScalarVectorPath) {
  const Problem p(400);
  core::EngineConfig base;
  base.approx.vector.isa = VectorIsa::Scalar;
  const auto ref = GBEngine(p.molecule, p.surf, base).compute();
  for (VectorIsa isa : available_widths()) {
    core::EngineConfig cfg;
    cfg.approx.vector = {isa};
    const auto r = GBEngine(p.molecule, p.surf, cfg).compute();
    for (std::size_t i = 0; i < ref.born.size(); ++i)
      EXPECT_LT(rel_diff(r.born[i], ref.born[i]), 1e-9)
          << simd::isa_name(isa) << " atom " << i;
    EXPECT_LT(rel_diff(r.epol, ref.epol), 1e-6) << simd::isa_name(isa);
    // Near/far classification is arithmetic-independent: identical
    // admissibility counters at every width.
    EXPECT_EQ(r.work.born_exact, ref.work.born_exact);
    EXPECT_EQ(r.work.born_approx, ref.work.born_approx);
    EXPECT_EQ(r.work.epol_exact, ref.work.epol_exact);
    EXPECT_EQ(r.work.epol_bins, ref.work.epol_bins);
  }
}

TEST(SimdEngine, WarmPlanReplayIsBitwiseAtEveryWidth) {
  const Problem p(350);
  for (VectorIsa isa : available_widths()) {
    core::EngineConfig cfg;
    cfg.approx.vector = {isa};
    GBEngine warm(p.molecule, p.surf, cfg);
    GBEngine cold(p.molecule, p.surf, cfg);
    EvalScratch scratch;
    const auto first = warm.compute(scratch);   // capture
    const auto reuse = warm.compute(scratch);   // born reuse
    EXPECT_EQ(scratch.plan_cache.stats.born_reuses, 1u);
    EXPECT_EQ(first.epol, reuse.epol) << simd::isa_name(isa);
    // A null refit (same positions) bumps the geometry epoch, forcing
    // validate + replay; the flat lists must reproduce the traversal bit
    // for bit through the same dispatched kernels.
    std::vector<geom::Vec3> same;
    same.reserve(p.molecule.size());
    for (const auto& atom : p.molecule.atoms()) same.push_back(atom.pos);
    warm.refit_atoms(same);
    const auto replay = warm.compute(scratch);
    EXPECT_EQ(scratch.plan_cache.stats.replays, 1u);
    const auto ref = cold.compute();  // plan-off traversal
    EXPECT_EQ(replay.epol, ref.epol) << simd::isa_name(isa);
    ASSERT_EQ(replay.born.size(), ref.born.size());
    for (std::size_t i = 0; i < replay.born.size(); ++i)
      ASSERT_EQ(replay.born[i], ref.born[i])
          << simd::isa_name(isa) << " atom " << i;
  }
}

TEST(SimdEngine, LocalityCarvingIsBitwiseAtEveryWidth) {
  // Locality-aware run coalescing regroups the replay chunks but must
  // not move a single arithmetic operation: at every dispatched width, a
  // warm replay with locality on reproduces the locality-off replay bit
  // for bit (serial execution, so Epol's completion-order fold is fixed
  // and comparable too).
  const Problem p(350);
  for (VectorIsa isa : available_widths()) {
    core::EngineConfig on_cfg, off_cfg;
    on_cfg.approx.vector = {isa};
    on_cfg.approx.locality = true;
    off_cfg.approx.vector = {isa};
    off_cfg.approx.locality = false;
    GBEngine on(p.molecule, p.surf, on_cfg);
    GBEngine off(p.molecule, p.surf, off_cfg);
    EvalScratch s_on, s_off;
    (void)on.compute(s_on);    // capture
    (void)off.compute(s_off);  // capture
    std::vector<geom::Vec3> same;
    same.reserve(p.molecule.size());
    for (const auto& atom : p.molecule.atoms()) same.push_back(atom.pos);
    on.refit_atoms(same);   // epoch bump → validate + replay
    off.refit_atoms(same);
    const auto r_on = on.compute(s_on);
    const auto r_off = off.compute(s_off);
    EXPECT_EQ(s_on.plan_cache.stats.replays, 1u);
    EXPECT_EQ(s_off.plan_cache.stats.replays, 1u);
    EXPECT_EQ(r_on.epol, r_off.epol) << simd::isa_name(isa);
    ASSERT_EQ(r_on.born.size(), r_off.born.size());
    for (std::size_t i = 0; i < r_on.born.size(); ++i)
      ASSERT_EQ(r_on.born[i], r_off.born[i])
          << simd::isa_name(isa) << " atom " << i;
  }
}

TEST(SimdEngine, VectorSwitchRepopulatesBornCache) {
  const Problem p(300);
  core::EngineConfig cfg;
  cfg.approx.vector = {VectorIsa::Auto};
  // The other width must resolve differently from Auto; on a build whose
  // widest width is V128, the Scalar ISA takes its place.
  const VectorIsa other = simd::resolve_isa(VectorIsa::Auto) ==
                                  simd::resolve_isa(VectorIsa::V128)
                              ? VectorIsa::Scalar
                              : VectorIsa::V128;
  GBEngine engine(p.molecule, p.surf, cfg);
  EvalScratch scratch;
  const auto wide = engine.compute(scratch);  // capture + store
  // Width switch: the PlanKey is unchanged (partition is arithmetic-
  // independent), so the plan itself is reused — but the Born stamp
  // differs, so the radii must be recomputed via replay, never served
  // from the Auto-width cache.
  engine.approx().vector.isa = other;
  const auto narrow = engine.compute(scratch);
  EXPECT_EQ(scratch.plan_cache.stats.key_hits, 1u);
  EXPECT_EQ(scratch.plan_cache.stats.born_reuses, 0u);
  EXPECT_EQ(scratch.plan_cache.stats.replays, 1u);
  // And back: still no stale reuse, and the Auto result reproduces.
  engine.approx().vector.isa = VectorIsa::Auto;
  const auto wide2 = engine.compute(scratch);
  EXPECT_EQ(scratch.plan_cache.stats.born_reuses, 0u);
  EXPECT_EQ(wide2.epol, wide.epol);
  // The two widths reassociate differently, so their radii differ in the
  // last bits — serving the cache across the switch would have been
  // wrong.
  EXPECT_NE(narrow.epol, wide.epol);
  // Unchanged params now: the cache finally serves.
  engine.compute(scratch);
  EXPECT_EQ(scratch.plan_cache.stats.born_reuses, 1u);
}
