// Tests for the force module and the Poisson–Boltzmann reference solver.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "octgb/baselines/pb.hpp"
#include "octgb/core/forces.hpp"
#include "octgb/octree/nblist.hpp"
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

// ---- Poisson–Boltzmann -------------------------------------------------------

TEST(PoissonBoltzmann, BornIonMatchesClosedForm) {
  // The canonical PB validation: a single ion of radius R has
  // Epol = −(τ/2) q²/R exactly.
  mol::Molecule m("ion");
  m.add_atom({{0, 0, 0}, 2.0, 1.0, mol::Element::O});
  baselines::PbParams params;
  params.grid_spacing = 0.5;
  params.padding = 12.0;
  params.max_iterations = 4000;
  params.tolerance = 1e-8;
  const auto r = baselines::pb_polarization_energy(m, {}, params);
  EXPECT_TRUE(r.converged);
  const core::GBParams gb;
  const double exact = -0.5 * gb.tau() / 2.0;
  EXPECT_NEAR(r.epol, exact, 0.10 * std::abs(exact));  // grid-limited
}

TEST(PoissonBoltzmann, RefinementImprovesBornIon) {
  mol::Molecule m("ion");
  m.add_atom({{0, 0, 0}, 2.0, 1.0, mol::Element::O});
  const core::GBParams gb;
  const double exact = -0.5 * gb.tau() / 2.0;
  double coarse_err = 0, fine_err = 0;
  for (double h : {1.0, 0.5}) {
    baselines::PbParams params;
    params.grid_spacing = h;
    params.padding = 10.0;
    params.max_iterations = 4000;
    params.tolerance = 1e-8;
    const auto r = baselines::pb_polarization_energy(m, {}, params);
    (h == 1.0 ? coarse_err : fine_err) =
        std::abs(r.epol - exact) / std::abs(exact);
  }
  EXPECT_LT(fine_err, coarse_err);
}

TEST(PoissonBoltzmann, AgreesWithGBOnSmallMolecule) {
  // GB approximates PB; on a small dipeptide-scale system they should
  // land within tens of percent (the model-level agreement §I relies on).
  const auto m = mol::generate_protein({.target_atoms = 60, .seed = 84});
  baselines::PbParams params;
  params.grid_spacing = 0.6;
  params.padding = 10.0;
  params.max_iterations = 3000;
  params.tolerance = 1e-7;
  const auto pb = baselines::pb_polarization_energy(m, {}, params);
  const auto surf = surface::build_surface(m, {.subdivision = 2});
  const auto born = core::naive_born_radii(m, surf);
  const double gb_e = core::naive_epol(m, born);
  EXPECT_LT(pb.epol, 0.0);
  EXPECT_LT(gb_e, 0.0);
  EXPECT_NEAR(pb.epol, gb_e, 0.5 * std::abs(gb_e));
}

TEST(PoissonBoltzmann, SaltScreeningDeepensPolarization) {
  // Adding mobile ions (κ > 0) screens the solvent further; |Epol| grows.
  mol::Molecule m("ion");
  m.add_atom({{0, 0, 0}, 2.0, 1.0, mol::Element::O});
  baselines::PbParams no_salt;
  no_salt.grid_spacing = 0.6;
  no_salt.max_iterations = 3000;
  baselines::PbParams salt = no_salt;
  salt.ionic_kappa = 0.3;
  const auto r0 = baselines::pb_polarization_energy(m, {}, no_salt);
  const auto r1 = baselines::pb_polarization_energy(m, {}, salt);
  EXPECT_LT(r1.epol, r0.epol);  // more negative
}

TEST(PoissonBoltzmann, GridBudgetThrowsSimulatedOom) {
  const auto m = mol::generate_protein({.target_atoms = 500, .seed = 85});
  baselines::PbParams params;
  params.grid_spacing = 0.8;
  params.max_bytes = 1024;
  EXPECT_THROW(baselines::pb_polarization_energy(m, {}, params),
               octree::NbListOutOfMemory);
}

TEST(PoissonBoltzmann, CountsGridWork) {
  mol::Molecule m("ion");
  m.add_atom({{0, 0, 0}, 2.0, 1.0, mol::Element::O});
  baselines::PbParams params;
  params.grid_spacing = 1.0;
  params.padding = 6.0;
  perf::WorkCounters wc;
  baselines::pb_polarization_energy(m, {}, params, &wc);
  EXPECT_GT(wc.grid_cells, 1000u);
}
