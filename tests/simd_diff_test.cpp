// Width differential test matrix for the kernel layer (octgb/simd/,
// DESIGN.md §2.7). Every compiled-and-runnable width, the Scalar ISA's
// width 1 included, is driven over generator-built spans of every
// remainder shape (lengths 1 .. 8·maxlanes+3, several base-pointer
// offsets) and checked against the width-1 table:
//
//   · double kernels agree up to reassociation (ε-bounds) and are
//     bitwise-stable across repeated runs;
//   · spans shorter than one vector run the pure scalar loop, which is
//     bit-identical to the width-1 kernel (x86-64; every kernel TU is
//     compiled with -ffp-contract=off);
//   · the splice property: vec(span) == vec(aligned prefix) followed by
//     per-element width-1 accumulation of the tail, bit for bit;
//   · the bin-pair far-field kernel matches a term-by-term Taylor
//     reference, including its exact binpair count;
//   · denormal, huge, coincident, and zero-weight inputs stay finite
//     (this test runs under ASan/UBSan in the CI simd-matrix job);
//   · engine-level: every width agrees with the Scalar vector path and
//     never flips a near/far classification (the engine work counters
//     are width-invariant), warm plan replay stays bitwise, and a width
//     switch repopulates the Born cache instead of serving stale radii.

// GCC emits -Wpsabi after the function bodies, so only a file-level
// pragma reaches it; see the exp_pd section at the end.
#pragma GCC diagnostic ignored "-Wpsabi"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>
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

using M = core::BinMoments;

/// One node's per-bin moment planes, owned (the test-side EpolContext):
/// plane p of bin k at m[p·nbins + k].
struct BinTable {
  std::vector<double> m, rep;
  int nbins = 0, lo = 0, hi = -1;
  double& at(int p, int k) {
    return m[static_cast<std::size_t>(p * nbins + k)];
  }
  core::BinMoments view() const {
    return {m.data() + lo, static_cast<std::size_t>(nbins), rep.data() + lo,
            hi - lo + 1};
  }
};

/// Random table over `nbins` geometric bins, ~40 % of them empty (every
/// moment zero), mirroring sparse per-node tables.
BinTable random_table(util::Xoshiro256& rng, int nbins) {
  BinTable t;
  t.nbins = nbins;
  t.m.assign(static_cast<std::size_t>(M::kPlanes * nbins), 0.0);
  t.rep.assign(nbins, 0.0);
  for (int k = 0; k < nbins; ++k) {
    t.rep[k] = 1.0 * std::exp(0.05 * (k + 0.5));
    if (rng.uniform(0.0, 1.0) <= 0.4) continue;
    const double q = rng.uniform(-2.0, 2.0);
    t.at(M::Q, k) = q;
    t.at(M::S, k) = q * t.rep[k] * rng.uniform(0.97, 1.03);
    t.at(M::T, k) = q * t.rep[k] * t.rep[k] * rng.uniform(0.94, 1.06);
    for (int p = M::Px; p <= M::Uz; ++p) t.at(p, k) = rng.uniform(-3.0, 3.0);
    for (int p = M::Txx; p <= M::Tyz; ++p)
      t.at(p, k) = rng.uniform(p <= M::Tzz ? 0.0 : -4.0, 4.0);
  }
  t.hi = nbins - 1;
  return t;
}

/// Reference for the far-bins kernel, written from the Taylor expansion
/// term by term rather than from the kernel's factored form: Σ over
/// occupied bin pairs of
///   Q_iQ_j h + h_d(Σ 2D·δ + Σ|δ|²) + h_r Σρ + 2h_dd Σ(D·δ)²
///     + 2h_dr Σ(D·δ)ρ + ½h_rr Σρ²,
/// h = F^(−½), F = d² + rr·e, its derivatives from those of φ = F^(−½)
/// and of F, and each Σ over atom pairs from the bin moments.
double far_bins_ref(const core::BinMoments& u, const core::BinMoments& v,
                    const double* dv, bool fast, std::uint64_t& binpairs) {
  const double d2 = dv[0] * dv[0] + dv[1] * dv[1] + dv[2] * dv[2];
  const auto dot = [&](const core::BinMoments& b, int p, int i) {
    return dv[0] * b.at(p, i) + dv[1] * b.at(p + 1, i) +
           dv[2] * b.at(p + 2, i);
  };
  const auto quad = [&](const core::BinMoments& b, int i) {
    const double th[3][3] = {
        {b.at(M::Txx, i), b.at(M::Txy, i), b.at(M::Txz, i)},
        {b.at(M::Txy, i), b.at(M::Tyy, i), b.at(M::Tyz, i)},
        {b.at(M::Txz, i), b.at(M::Tyz, i), b.at(M::Tzz, i)}};
    double sum = 0.0;
    for (int r = 0; r < 3; ++r)
      for (int c = 0; c < 3; ++c) sum += dv[r] * th[r][c] * dv[c];
    return sum;
  };
  const auto trace = [](const core::BinMoments& b, int i) {
    return b.at(M::Txx, i) + b.at(M::Tyy, i) + b.at(M::Tzz, i);
  };
  double sum = 0.0;
  for (int i = 0; i < u.n; ++i) {
    if (!u.occupied(i)) continue;
    for (int j = 0; j < v.n; ++j) {
      if (!v.occupied(j)) continue;
      const double rr = u.rep[i] * v.rep[j];
      const double x = d2 / (4.0 * rr);
      const double e = fast ? core::fast_exp(-x) : std::exp(-x);
      const double f2 = d2 + rr * e;
      const double inv_f = fast ? core::fast_rsqrt(f2) : 1.0 / std::sqrt(f2);
      const double phi1 = -0.5 * std::pow(inv_f, 3);
      const double phi2 = 0.75 * std::pow(inv_f, 5);
      const double fd = 1.0 - e / 4.0, fr = e * (1.0 + x);
      const double fdd = e / (16.0 * rr), fdr = -e * x / (4.0 * rr),
                   frr = e * x * x / rr;
      const double hd = phi1 * fd, hr = phi1 * fr;
      const double hdd = phi2 * fd * fd + phi1 * fdd;
      const double hdr = phi2 * fd * fr + phi1 * fdr;
      const double hrr = phi2 * fr * fr + phi1 * frr;
      const double qi = u.at(M::Q, i), qj = v.at(M::Q, j);
      const double si = u.at(M::S, i), sj = v.at(M::S, j);
      const double dpi = dot(u, M::Px, i), dpj = dot(v, M::Px, j);
      const double dui = dot(u, M::Ux, i), duj = dot(v, M::Ux, j);
      const double pp = u.at(M::Px, i) * v.at(M::Px, j) +
                        u.at(M::Py, i) * v.at(M::Py, j) +
                        u.at(M::Pz, i) * v.at(M::Pz, j);
      const double lin = 2.0 * (dpi * qj - qi * dpj);
      const double sq = qj * trace(u, i) + qi * trace(v, j) - 2.0 * pp;
      const double dd = qj * quad(u, i) + qi * quad(v, j) - 2.0 * dpi * dpj;
      const double rho = si * sj - rr * qi * qj;
      const double drho = dui * sj - si * duj + rr * (qi * dpj - dpi * qj);
      const double rho2 = u.at(M::T, i) * v.at(M::T, j) - 2.0 * rr * si * sj +
                          rr * rr * qi * qj;
      sum += qi * qj * inv_f + hd * (lin + sq) + hr * rho + 2.0 * hdd * dd +
             2.0 * hdr * drho + 0.5 * hrr * rho2;
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
/// Scalar path exists (every width test degrades to a no-op then, which
/// is exactly the portable-fallback contract).
std::vector<VectorIsa> available_widths() {
  std::vector<VectorIsa> out;
  for (VectorIsa isa : kWidths)
    if (simd::isa_available(isa)) out.push_back(isa);
  return out;
}

/// The Scalar ISA followed by available_widths(): every table the
/// dispatch can hand out.
std::vector<VectorIsa> every_isa() {
  std::vector<VectorIsa> out{VectorIsa::Scalar};
  for (VectorIsa isa : available_widths()) out.push_back(isa);
  return out;
}

/// The Scalar ISA's width-1 table: the reference whose per-term code every
/// width's scalar loop runs.
const KernelSet& scalar_table() { return *simd::kernels(VectorIsa::Scalar); }

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

TEST(SimdDispatch, ScalarIsTheWidthOneTableAndWidthsAreConsistent) {
  const VectorIsa isas[] = {VectorIsa::Scalar, VectorIsa::V128,
                            VectorIsa::V256};
  const int want_lanes[] = {1, 2, 4};
  for (std::size_t i = 0; i < 3; ++i) {
    if (!simd::isa_available(isas[i])) continue;
    const KernelSet* ks = simd::kernels(isas[i]);
    ASSERT_NE(ks, nullptr);
    EXPECT_EQ(ks->lanes, want_lanes[i]);
    EXPECT_EQ(simd::lanes(isas[i]), want_lanes[i]);
    EXPECT_STREQ(simd::isa_name(isas[i]), ks->name);
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
  const KernelSet& scalar = scalar_table();
  for (VectorIsa isa : every_isa()) {
    const KernelSet* ks = simd::kernels(isa);
    ASSERT_NE(ks, nullptr);
    for (std::size_t off : kOffsets) {
      for (std::size_t len = 1; len <= kMaxSpan; ++len) {
        const QPointBatch q = data.qspan(off, len);
        const double ref = scalar.born_integral(ax, ay, az, q);
        const double got = ks->born_integral(ax, ay, az, q);
        EXPECT_NEAR(got, ref, 1e-9 * (1.0 + std::abs(ref)))
            << ks->name << " off " << off << " len " << len;
        // Bitwise-stable: re-running the same span gives the same bits.
        EXPECT_EQ(got, ks->born_integral(ax, ay, az, q))
            << ks->name << " off " << off << " len " << len;

        const double ref_fast = scalar.born_integral_fast(ax, ay, az, q);
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
  const KernelSet& scalar = scalar_table();
  for (VectorIsa isa : every_isa()) {
    const KernelSet* ks = simd::kernels(isa);
    for (std::size_t off : kOffsets) {
      for (std::size_t len = 1; len <= kMaxSpan; ++len) {
        const AtomBatch a = data.aspan(off, len);
        const double ref = scalar.epol_sum(vx, vy, vz, qv, rv, a);
        const double got = ks->epol_sum(vx, vy, vz, qv, rv, a);
        // The vector body's exp_pd differs from libm by ≈1 ulp per term,
        // so this is an ε-bound, not reassociation-only.
        EXPECT_NEAR(got, ref, 1e-9 * (1.0 + std::abs(ref)))
            << ks->name << " off " << off << " len " << len;
        EXPECT_EQ(got, ks->epol_sum(vx, vy, vz, qv, rv, a));

        const double ref_fast = scalar.epol_sum_fast(vx, vy, vz, qv, rv, a);
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

// The tail claims below are exact only where no kernel TU contracts a
// multiply-add — every kernel TU is compiled with -ffp-contract=off, and
// the claims are checked on x86-64 (see DESIGN.md §2.7).
#if defined(__x86_64__) || defined(_M_X64)

TEST(SimdRemainder, SubVectorSpansAreBitwiseTheReferenceKernel) {
  const SpanData data(303);
  const double ax = -0.2, ay = 0.9, az = 0.5;
  const double vx = 0.3, vy = -0.8, vz = 0.1, qv = -0.6, rv = 2.2;
  const KernelSet& scalar = scalar_table();
  for (VectorIsa isa : every_isa()) {
    const KernelSet* ks = simd::kernels(isa);
    const std::size_t lanes = static_cast<std::size_t>(ks->lanes);
    for (std::size_t off : kOffsets) {
      for (std::size_t len = 1; len < lanes; ++len) {
        const QPointBatch q = data.qspan(off, len);
        EXPECT_EQ(ks->born_integral(ax, ay, az, q),
                  scalar.born_integral(ax, ay, az, q))
            << ks->name << " off " << off << " len " << len;
        EXPECT_EQ(ks->born_integral_fast(ax, ay, az, q),
                  scalar.born_integral_fast(ax, ay, az, q))
            << ks->name << " off " << off << " len " << len;
        const AtomBatch a = data.aspan(off, len);
        EXPECT_EQ(ks->epol_sum(vx, vy, vz, qv, rv, a),
                  scalar.epol_sum(vx, vy, vz, qv, rv, a))
            << ks->name << " off " << off << " len " << len;
        EXPECT_EQ(ks->epol_sum_fast(vx, vy, vz, qv, rv, a),
                  scalar.epol_sum_fast(vx, vy, vz, qv, rv, a))
            << ks->name << " off " << off << " len " << len;
      }
    }
  }
}

TEST(SimdRemainder, SpliceVectorPrefixPlusScalarTailIsBitwise) {
  // vec(span) must equal vec(aligned prefix) followed by sequential
  // per-element width-1 accumulation of the tail — the reduction
  // completes before the tail runs, so the split is observable from
  // outside. Epol uses qv = 1 (qv scales the total, which would break
  // term-by-term splicing for qv ≠ 1).
  const SpanData data(404);
  const double ax = 0.1, ay = 0.2, az = -0.4;
  const double vx = -0.5, vy = 0.6, vz = 0.3, rv = 1.4;
  const KernelSet& scalar = scalar_table();
  for (VectorIsa isa : every_isa()) {
    const KernelSet* ks = simd::kernels(isa);
    const std::size_t lanes = static_cast<std::size_t>(ks->lanes);
    for (std::size_t len = 1; len <= 4 * lanes + 3; ++len) {
      const std::size_t prefix = (len / lanes) * lanes;
      {
        double acc = ks->born_integral(ax, ay, az, data.qspan(0, prefix));
        for (std::size_t k = prefix; k < len; ++k)
          acc += scalar.born_integral(ax, ay, az, data.qspan(k, 1));
        EXPECT_EQ(ks->born_integral(ax, ay, az, data.qspan(0, len)), acc)
            << ks->name << " len " << len;
      }
      {
        double acc =
            ks->epol_sum(vx, vy, vz, 1.0, rv, data.aspan(0, prefix));
        for (std::size_t k = prefix; k < len; ++k)
          acc += scalar.epol_sum(vx, vy, vz, 1.0, rv, data.aspan(k, 1));
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
  for (VectorIsa isa : every_isa()) {
    const KernelSet* ks = simd::kernels(isa);
    for (int trial = 0; trial < 24; ++trial) {
      const int nbins = 1 + static_cast<int>(rng.uniform(0.0, 40.0));
      BinTable ut = random_table(rng, nbins), vt = random_table(rng, nbins);
      ut.lo = trial % nbins;
      vt.hi = std::max(0, nbins - 1 - (trial % 3));
      const double dv[3] = {rng.uniform(5.0, 40.0), rng.uniform(-40.0, 40.0),
                            rng.uniform(-40.0, 40.0)};
      const double d2 = dv[0] * dv[0] + dv[1] * dv[1] + dv[2] * dv[2];
      const core::BinMoments u = ut.view(), v = vt.view();
      for (bool fast : {false, true}) {
        std::uint64_t pairs_ref = 0, pairs_got = 0;
        const double ref = far_bins_ref(u, v, dv, fast, pairs_ref);
        const auto fn = fast ? ks->epol_far_bins_fast : ks->epol_far_bins;
        const double got = fn(u, v, dv[0], dv[1], dv[2], d2, pairs_got);
        EXPECT_NEAR(got, ref, 1e-10 * (1.0 + std::abs(ref)))
            << ks->name << " trial " << trial << " fast " << fast;
        // The work accounting must be width-invariant to the bit.
        EXPECT_EQ(pairs_got, pairs_ref)
            << ks->name << " trial " << trial << " fast " << fast;
        std::uint64_t again = 0;
        EXPECT_EQ(got, fn(u, v, dv[0], dv[1], dv[2], d2, again));
      }
    }
    // Empty ranges: no sum, no pairs.
    std::uint64_t pairs = 0;
    const double one = 1.0;
    std::array<double, M::kPlanes> ones;
    ones.fill(1.0);
    const core::BinMoments empty{ones.data(), 1, &one, 0};
    const core::BinMoments single{ones.data(), 1, &one, 1};
    EXPECT_EQ(ks->epol_far_bins(empty, single, 10.0, 0.0, 0.0, 100.0, pairs),
              0.0);
    EXPECT_EQ(ks->epol_far_bins(single, empty, 10.0, 0.0, 0.0, 100.0, pairs),
              0.0);
    EXPECT_EQ(pairs, 0u);
  }
}

TEST(SimdFarBins, RemainderTailIsBitwiseTheScalarTable) {
  // A u-bin range shorter than one vector runs only the scalar loop, the
  // width-1 kernel's per-term code and row accumulator: the result must
  // match the width-1 table to the bit, for any v range, exact and fast.
  util::Xoshiro256 rng(506);
  const KernelSet& scalar = scalar_table();
  for (VectorIsa isa : every_isa()) {
    const KernelSet* ks = simd::kernels(isa);
    for (int trial = 0; trial < 48; ++trial) {
      const int nbins = 12;
      BinTable ut = random_table(rng, nbins), vt = random_table(rng, nbins);
      vt.lo = trial % 4;
      ut.lo = trial % nbins;
      ut.hi = std::min(nbins - 1,
                       ut.lo + trial % std::max(1, ks->lanes - 1));
      const double dv[3] = {rng.uniform(5.0, 40.0), rng.uniform(-40.0, 40.0),
                            rng.uniform(-40.0, 40.0)};
      const double d2 = dv[0] * dv[0] + dv[1] * dv[1] + dv[2] * dv[2];
      for (bool fast : {false, true}) {
        const auto want_fn =
            fast ? scalar.epol_far_bins_fast : scalar.epol_far_bins;
        const auto got_fn = fast ? ks->epol_far_bins_fast : ks->epol_far_bins;
        std::uint64_t want_pairs = 0, got_pairs = 0;
        const double want =
            want_fn(ut.view(), vt.view(), dv[0], dv[1], dv[2], d2, want_pairs);
        const double got =
            got_fn(ut.view(), vt.view(), dv[0], dv[1], dv[2], d2, got_pairs);
        EXPECT_EQ(got, want) << ks->name << " trial " << trial << " fast "
                             << fast;
        EXPECT_EQ(got_pairs, want_pairs) << ks->name << " trial " << trial;
      }
    }
  }
}

TEST(SimdFarBins, ZeroChargeBodyGivesExactlyZero) {
  // A body whose atoms all carry zero charge has every moment zero: each
  // of its bins is skipped, so the far field is exactly 0 with no pairs
  // counted, at every width, whichever side the body is on.
  util::Xoshiro256 rng(507);
  const int nbins = 11;
  const BinTable charged = random_table(rng, nbins);
  BinTable neutral = random_table(rng, nbins);
  std::fill(neutral.m.begin(), neutral.m.end(), 0.0);
  for (VectorIsa isa : every_isa()) {
    const KernelSet* ks = simd::kernels(isa);
    for (bool fast : {false, true}) {
      const auto fn = fast ? ks->epol_far_bins_fast : ks->epol_far_bins;
      std::uint64_t pairs = 0;
      EXPECT_EQ(fn(charged.view(), neutral.view(), 12.0, -3.0, 4.0, 169.0,
                   pairs),
                0.0)
          << ks->name;
      EXPECT_EQ(fn(neutral.view(), charged.view(), 12.0, -3.0, 4.0, 169.0,
                   pairs),
                0.0)
          << ks->name;
      EXPECT_EQ(pairs, 0u) << ks->name;
    }
  }
}

TEST(SimdFarBins, QuadrupoleOnlyBinContributes) {
  // A bin whose charges cancel in Q, S and P (a ±q pair about the node
  // centroid) still carries a quadrupole, which the second-order term
  // sees: the bin counts as occupied and its far field matches the
  // reference, at every width, on either side.
  util::Xoshiro256 rng(508);
  const BinTable charged = random_table(rng, 7);
  BinTable quad = random_table(rng, 7);
  std::fill(quad.m.begin(), quad.m.end(), 0.0);
  quad.at(M::Txx, 3) = 1.5;
  quad.at(M::Tyy, 3) = -0.5;
  quad.at(M::Txz, 3) = 0.75;
  ASSERT_TRUE(quad.view().occupied(3));
  const double dv[3] = {9.0, -4.0, 2.5};
  const double d2 = dv[0] * dv[0] + dv[1] * dv[1] + dv[2] * dv[2];
  std::uint64_t nnz = 0;
  for (int k = 0; k < 7; ++k) nnz += charged.view().occupied(k) ? 1u : 0u;
  ASSERT_GT(nnz, 0u);
  for (VectorIsa isa : every_isa()) {
    const KernelSet* ks = simd::kernels(isa);
    for (bool fast : {false, true}) {
      const auto fn = fast ? ks->epol_far_bins_fast : ks->epol_far_bins;
      for (const bool quad_is_u : {true, false}) {
        const core::BinMoments u = quad_is_u ? quad.view() : charged.view();
        const core::BinMoments v = quad_is_u ? charged.view() : quad.view();
        std::uint64_t pairs = 0, pairs_ref = 0;
        const double got = fn(u, v, dv[0], dv[1], dv[2], d2, pairs);
        const double ref = far_bins_ref(u, v, dv, fast, pairs_ref);
        EXPECT_NE(got, 0.0) << ks->name << " fast " << fast;
        EXPECT_NEAR(got, ref, 1e-12 * (1.0 + std::abs(ref)))
            << ks->name << " fast " << fast;
        EXPECT_EQ(pairs, nnz) << ks->name;
        EXPECT_EQ(pairs_ref, nnz);
      }
    }
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
  const double ref = scalar_table().born_integral(ax, ay, az, q);
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
  const double ref = scalar_table().epol_sum(vx, vy, vz, 0.8, 1.7, a);
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
  // The run-coalesced carve spreads its chunks over the workers and
  // prefetches between owners, but must not move a single arithmetic
  // operation: at every dispatched width, a 4-worker warm replay is
  // bitwise the one-shot compute() walk.
  const Problem p(350);
  ws::Scheduler sched(4);
  for (VectorIsa isa : available_widths()) {
    core::EngineConfig cfg;
    cfg.approx.vector = {isa};
    GBEngine warm(p.molecule, p.surf, cfg);
    EvalScratch scratch;
    (void)warm.compute(scratch, &sched);  // capture
    ASSERT_GT(scratch.plan_cache.plan.chunks(), 1u) << simd::isa_name(isa);
    std::vector<geom::Vec3> same;
    same.reserve(p.molecule.size());
    for (const auto& atom : p.molecule.atoms()) same.push_back(atom.pos);
    warm.refit_atoms(same);  // epoch bump → validate + replay
    const auto replay = warm.compute(scratch, &sched);
    EXPECT_EQ(scratch.plan_cache.stats.replays, 1u);
    const auto ref = GBEngine(p.molecule, p.surf, cfg).compute(&sched);
    EXPECT_EQ(replay.epol, ref.epol) << simd::isa_name(isa);
    ASSERT_EQ(replay.born.size(), ref.born.size());
    for (std::size_t i = 0; i < replay.born.size(); ++i)
      ASSERT_EQ(replay.born[i], ref.born[i])
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
  // The radii view the scratch, which the next compute overwrites.
  const std::vector<double> wide_born(wide.born.begin(), wide.born.end());
  // Width switch: the PlanKey is unchanged (partition is arithmetic-
  // independent), so the plan itself is reused — but the Born stamp
  // differs, so the radii must be recomputed via replay, never served
  // from the Auto-width cache.
  engine.approx().vector.isa = other;
  const auto narrow = engine.compute(scratch);
  const std::vector<double> narrow_born(narrow.born.begin(),
                                        narrow.born.end());
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
  // wrong. (The energies are a sum of many terms and may round to the
  // same bits.)
  EXPECT_NE(narrow_born, wide_born);
  // Unchanged params now: the cache finally serves.
  engine.compute(scratch);
  EXPECT_EQ(scratch.plan_cache.stats.born_reuses, 1u);
}

// ---- exp_pd: exponent bits without a double → int64 conversion -----------

// pack.hpp is meant to be included inside an anonymous namespace of the
// TU that uses it (see its header note); the test does the same. This TU
// has no AVX flags, so 4-lane vectors pass in memory: internal linkage
// makes GCC's ABI note moot (silenced at the top of the file, the only
// place GCC honours it).
namespace {
namespace pk {
#include "octgb/simd/pack.hpp"
}  // namespace pk

typedef std::int64_t oracle_q2 __attribute__((vector_size(16)));
typedef std::int64_t oracle_q4 __attribute__((vector_size(32)));
template <int N>
using oracle_q = std::conditional_t<N == 2, oracle_q2, oracle_q4>;

/// The former exp_pd, kept as the oracle: identical arithmetic, but the
/// exponent n is converted to an integer vector before biasing.
template <int N>
typename pk::lanes_of<N>::vd exp_pd_by_conversion(
    typename pk::lanes_of<N>::vd x) {
  using vd = typename pk::lanes_of<N>::vd;
  using vq = oracle_q<N>;
  using pk::bc;
  const auto is_nan = x != x;
  vd xc = is_nan ? bc<vd>(0.0) : x;
  xc = xc > bc<vd>(709.0) ? bc<vd>(709.0) : xc;
  xc = xc < bc<vd>(-709.0) ? bc<vd>(-709.0) : xc;
  const vd magic = bc<vd>(6755399441055744.0);  // 1.5 * 2^52
  const vd t = xc * bc<vd>(1.4426950408889634074);
  const vd n = (t + magic) - magic;
  vd px = xc - n * bc<vd>(6.93145751953125e-1);
  px -= n * bc<vd>(1.42860682030941723212e-6);
  const vd xx = px * px;
  vd p = bc<vd>(1.26177193074810590878e-4);
  p = p * xx + bc<vd>(3.02994407707441961300e-2);
  p = p * xx + bc<vd>(9.99999999999999999910e-1);
  p = p * px;
  vd q = bc<vd>(3.00198505138664455042e-6);
  q = q * xx + bc<vd>(2.52448340349684104192e-3);
  q = q * xx + bc<vd>(2.27265548208155028766e-1);
  q = q * xx + bc<vd>(2.0);
  const vd e = bc<vd>(1.0) + bc<vd>(2.0) * p / (q - p);
  const vq ni = __builtin_convertvector(n, vq);
  const vq bits = (ni + 1023) << 52;
  vd r = e * (vd)bits;
  r = x < bc<vd>(-708.0) ? bc<vd>(0.0) : r;
  r = x > bc<vd>(708.0) ? bc<vd>(__builtin_inf()) : r;
  r = is_nan ? x : r;
  return r;
}

std::uint64_t bits_of(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

/// Every input of `xs` through both formulations at width N, bitwise.
template <int N>
void expect_exp_pd_bitwise(const std::vector<double>& xs) {
  using vd = typename pk::lanes_of<N>::vd;
  for (std::size_t i = 0; i < xs.size(); i += N) {
    vd x{};
    for (int l = 0; l < N; ++l) x[l] = xs[std::min(i + l, xs.size() - 1)];
    const vd got = pk::exp_pd<N>(x);
    const vd want = exp_pd_by_conversion<N>(x);
    for (int l = 0; l < N; ++l)
      ASSERT_EQ(bits_of(got[l]), bits_of(want[l]))
          << "x = " << x[l] << " (" << N << " lanes)";
  }
}

}  // namespace

TEST(ExpPd, ExponentFromBitsMatchesConversionBitwise) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> xs{-709.5, -709.0, -708.5, -708.0, -745.0, -1e-300,
                         -0.0,   0.0,    1e-300, 708.5,  709.5,
                         std::numeric_limits<double>::quiet_NaN(), inf,
                         -inf};
  // Dense sweep of the kernels' domain: every exponent n the range
  // reduction produces, and both sides of every rounding tie.
  constexpr int kSteps = 1 << 20;
  for (int k = 0; k <= kSteps; ++k) xs.push_back(-708.0 * k / kSteps);
  expect_exp_pd_bitwise<2>(xs);
  expect_exp_pd_bitwise<4>(xs);
}
