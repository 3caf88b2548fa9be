// Tests for the GB force module.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "octgb/core/forces.hpp"
#include "octgb/core/naive.hpp"
#include "octgb/mol/generate.hpp"
#include "octgb/surface/surface.hpp"

using namespace octgb;
using geom::Vec3;

// ---- GB forces -------------------------------------------------------------

TEST(Forces, KernelMatchesNumericalDerivativeOfInverseFgb) {
  // g(r², D) must equal −d(1/f_GB)/d(r²) · 2 … i.e. the pair force law.
  // Check via central differences on E(r) = 1/f_GB(r²).
  const double D = 3.7;
  for (double r : {1.0, 2.5, 5.0, 12.0}) {
    const double h = 1e-5;
    const double em = 1.0 / core::f_gb((r - h) * (r - h), D);
    const double ep = 1.0 / core::f_gb((r + h) * (r + h), D);
    const double dEdr = (ep - em) / (2 * h);
    // ∇(1/f) along r is −g·r (from the closed form).
    EXPECT_NEAR(dEdr, -core::epol_force_kernel(r * r, D) * r,
                1e-6 * std::abs(dEdr) + 1e-12)
        << "r=" << r;
  }
}

TEST(Forces, MatchFiniteDifferenceOfNaiveEnergy) {
  // The gold standard: F = −∇E by central differences with frozen radii.
  mol::Molecule m;
  m.add_atom({{0, 0, 0}, 1.7, 0.8, mol::Element::C});
  m.add_atom({{3, 1, 0}, 1.5, -0.5, mol::Element::O});
  m.add_atom({{-1, 2, 2}, 1.6, 0.3, mol::Element::N});
  const std::vector<double> born = {2.0, 1.8, 2.2};

  const auto forces = core::naive_epol_forces(m, born);
  const double h = 1e-6;
  for (std::size_t a = 0; a < m.size(); ++a) {
    for (int axis = 0; axis < 3; ++axis) {
      auto perturbed = [&](double delta) {
        mol::Molecule p = m;
        Vec3 pos = p.atom(a).pos;
        (axis == 0 ? pos.x : axis == 1 ? pos.y : pos.z) += delta;
        p.atoms()[a].pos = pos;
        return core::naive_epol(p, born);
      };
      const double grad = (perturbed(h) - perturbed(-h)) / (2 * h);
      const double force_component = forces[a][axis];
      EXPECT_NEAR(force_component, -grad,
                  1e-5 * (std::abs(grad) + 1.0))
          << "atom " << a << " axis " << axis;
    }
  }
}

TEST(Forces, NewtonsThirdLawAndTranslationInvariance) {
  const auto m = mol::generate_protein({.target_atoms = 150, .seed = 81});
  const auto surf = surface::build_surface(m);
  const auto born = core::naive_born_radii(m, surf);
  const auto forces = core::naive_epol_forces(m, born);
  Vec3 total;
  for (const auto& f : forces) total += f;
  EXPECT_NEAR(total.norm(), 0.0, 1e-8);  // momentum conservation
}

TEST(Forces, OctreeForcesMatchNaive) {
  const auto m = mol::generate_protein({.target_atoms = 600, .seed = 82});
  const auto surf = surface::build_surface(m);
  core::GBEngine engine(m, surf);
  const auto result = engine.compute();
  const auto naive = core::naive_epol_forces(m, result.born);
  perf::WorkCounters wc;
  const auto octree_f = core::approx_epol_forces(engine, result.born, wc);
  ASSERT_EQ(octree_f.size(), naive.size());
  double fscale = 0.0;
  for (const auto& f : naive) fscale = std::max(fscale, f.norm());
  // The force pass opens nodes at (1 + 2/ε)^¾ (epol_force_threshold); at
  // the energy's sqrt(1 + 2/ε) its worst error here was 0.0222.
  double worst = 0.0;
  std::size_t worst_atom = 0;
  for (std::size_t i = 0; i < naive.size(); ++i) {
    const double err = (octree_f[i] - naive[i]).norm();
    if (err > worst) {
      worst = err;
      worst_atom = i;
    }
  }
  RecordProperty("worst_error_of_largest_force",
                 std::to_string(worst / fscale));
  EXPECT_LE(worst, 0.0105 * fscale)
      << "atom " << worst_atom << ": " << worst / fscale
      << " of the largest force";
}

TEST(Forces, DescentStepLowersEnergy) {
  // Take a small steepest-descent step along the forces; the (frozen
  // radii) energy must decrease — the md_minimize example's invariant.
  const auto m = mol::generate_protein({.target_atoms = 200, .seed = 83});
  const auto surf = surface::build_surface(m);
  const auto born = core::naive_born_radii(m, surf);
  const double e0 = core::naive_epol(m, born);
  const auto forces = core::naive_epol_forces(m, born);
  double fmax = 0.0;
  for (const auto& f : forces) fmax = std::max(fmax, f.norm());
  ASSERT_GT(fmax, 0.0);
  mol::Molecule moved = m;
  const double step = 1e-4 / fmax;
  for (std::size_t i = 0; i < moved.size(); ++i)
    moved.atoms()[i].pos += forces[i] * step;
  const double e1 = core::naive_epol(moved, born);
  EXPECT_LT(e1, e0);
}
