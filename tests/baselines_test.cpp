// Tests for the baseline GB engines (pairwise descreening, GBr6 volume
// method, package stand-ins).

#include <gtest/gtest.h>

#include <cmath>

#include "octgb/baselines/descreening.hpp"
#include "octgb/baselines/gbr6.hpp"
#include "octgb/baselines/packages.hpp"
#include "octgb/core/naive.hpp"
#include "octgb/mol/generate.hpp"
#include "octgb/surface/surface.hpp"

using namespace octgb;
using baselines::BornModel;
using baselines::DescreeningParams;
using baselines::pairwise_born_radii;

namespace {

octree::NbList full_nblist(const mol::Molecule& m, double cutoff = 1e3) {
  std::vector<geom::Vec3> pts(m.size());
  for (std::size_t i = 0; i < m.size(); ++i) pts[i] = m.atom(i).pos;
  return octree::NbList::build(pts, {.cutoff = cutoff, .max_bytes = 0});
}

}  // namespace

TEST(Descreening, IsolatedAtomKeepsReducedRadius) {
  mol::Molecule m;
  m.add_atom({{0, 0, 0}, 1.7, 0.2, mol::Element::C});
  const auto nb = full_nblist(m);
  for (BornModel model : {BornModel::HCT, BornModel::OBC}) {
    const auto born = pairwise_born_radii(m, nb, model);
    ASSERT_EQ(born.size(), 1u);
    // No neighbors → Born radius = intrinsic (clamped to vdW).
    EXPECT_NEAR(born[0], 1.7, 0.12) << "model " << static_cast<int>(model);
  }
}

TEST(Descreening, NeighborsIncreaseBornRadius) {
  // Descreening removes solvent: buried atoms get larger radii.
  mol::Molecule lone, pair;
  lone.add_atom({{0, 0, 0}, 1.7, 0, mol::Element::C});
  pair.add_atom({{0, 0, 0}, 1.7, 0, mol::Element::C});
  pair.add_atom({{3.0, 0, 0}, 1.7, 0, mol::Element::C});
  for (BornModel model :
       {BornModel::HCT, BornModel::OBC, BornModel::Still}) {
    const auto lone_born = pairwise_born_radii(lone, full_nblist(lone), model);
    const auto pair_born = pairwise_born_radii(pair, full_nblist(pair), model);
    EXPECT_GT(pair_born[0], lone_born[0] - 1e-9)
        << "model " << static_cast<int>(model);
  }
}

TEST(Descreening, BuriedAtomLargerThanSurfaceAtom) {
  // 3x3x3 grid: the center atom (index 13) is surrounded on all sides,
  // the corner atom (index 0) is the most exposed.
  mol::Molecule m;
  for (int x = 0; x < 3; ++x)
    for (int y = 0; y < 3; ++y)
      for (int z = 0; z < 3; ++z)
        m.add_atom({{x * 2.0, y * 2.0, z * 2.0}, 1.7, 0, mol::Element::C});
  const auto nb = full_nblist(m);
  for (BornModel model :
       {BornModel::HCT, BornModel::OBC, BornModel::Still}) {
    const auto born = pairwise_born_radii(m, nb, model);
    EXPECT_GT(born[13], born[0]) << "model " << static_cast<int>(model);
    EXPECT_NEAR(born[0], born[26], 1e-9);  // opposite corners symmetric
  }
}

TEST(Descreening, ObcTanhRescalingKeepsRadiiFinite) {
  // Dense cluster: HCT can overshoot 1/R → 0; OBC's tanh keeps it sane.
  mol::Molecule m;
  for (int x = 0; x < 4; ++x)
    for (int y = 0; y < 4; ++y)
      for (int z = 0; z < 4; ++z)
        m.add_atom({{x * 2.0, y * 2.0, z * 2.0}, 1.7, 0, mol::Element::C});
  const auto nb = full_nblist(m);
  const auto born = pairwise_born_radii(m, nb, BornModel::OBC);
  for (double r : born) {
    EXPECT_GT(r, 1.0);
    EXPECT_LT(r, 50.0);
  }
}

TEST(Descreening, CorrelatesWithSurfaceR6OnProteins) {
  // Different models, same physics: pairwise radii should correlate with
  // the surface-based reference (not match exactly).
  const auto m = mol::generate_protein({.target_atoms = 400, .seed = 41});
  const auto surf = surface::build_surface(m, {.subdivision = 1});
  const auto ref = core::naive_born_radii(m, surf);
  const auto born = pairwise_born_radii(m, full_nblist(m, 20.0),
                                        BornModel::HCT);
  // Rank correlation proxy: mean radii of the most/least buried quartiles
  // must order the same way.
  std::vector<std::size_t> order(m.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return ref[a] < ref[b]; });
  double low = 0, high = 0;
  const std::size_t q = m.size() / 4;
  for (std::size_t i = 0; i < q; ++i) {
    low += born[order[i]];
    high += born[order[m.size() - 1 - i]];
  }
  EXPECT_GT(high / q, low / q);
}

// ---- GBr6 --------------------------------------------------------------------

TEST(Gbr6, IsolatedSphereRecoversRadius) {
  mol::Molecule m;
  m.add_atom({{0, 0, 0}, 2.0, 1.0, mol::Element::C});
  baselines::Gbr6Params params;
  params.grid_spacing = 0.3;
  const auto born = baselines::gbr6_born_radii(m, params);
  ASSERT_EQ(born.size(), 1u);
  // Exterior integral over the molecule minus the ball is ~0 → R ≈ ρ,
  // biased slightly high by the conservative half-cell marking radius.
  EXPECT_NEAR(born[0], 2.0, 0.2);
}

TEST(Gbr6, BuriedAtomLargerRadius) {
  mol::Molecule m;
  for (int i = -2; i <= 2; ++i)
    m.add_atom({{i * 2.0, 0, 0}, 1.7, 0, mol::Element::C});
  baselines::Gbr6Params params;
  params.grid_spacing = 0.4;
  const auto born = baselines::gbr6_born_radii(m, params);
  EXPECT_GT(born[2], born[0]);
}

TEST(Gbr6, GridBudgetThrowsSimulatedOom) {
  const auto m = mol::generate_protein({.target_atoms = 500, .seed = 43});
  baselines::Gbr6Params params;
  params.grid_spacing = 0.5;
  params.max_bytes = 64;  // absurdly small
  EXPECT_THROW(baselines::gbr6_born_radii(m, params),
               octree::NbListOutOfMemory);
}

TEST(Gbr6, CountsGridWork) {
  const auto m = mol::generate_protein({.target_atoms = 150, .seed = 44});
  perf::WorkCounters wc;
  baselines::gbr6_born_radii(m, {}, &wc);
  EXPECT_GT(wc.grid_cells, m.size() * 100);
}

// ---- packages -----------------------------------------------------------------

TEST(Packages, RegistryMatchesTableII) {
  const auto reg = baselines::package_registry();
  ASSERT_EQ(reg.size(), 5u);
  const auto* amber = baselines::find_package("Amber 12");
  ASSERT_NE(amber, nullptr);
  EXPECT_STREQ(amber->gb_model, "HCT");
  const auto* namd = baselines::find_package("NAMD 2.9");
  ASSERT_NE(namd, nullptr);
  EXPECT_EQ(namd->born_model, BornModel::OBC);
  const auto* tinker = baselines::find_package("Tinker 6.0");
  ASSERT_NE(tinker, nullptr);
  EXPECT_EQ(tinker->parallelism, baselines::Parallelism::SharedMemory);
  const auto* gbr6 = baselines::find_package("GBr6");
  ASSERT_NE(gbr6, nullptr);
  EXPECT_TRUE(gbr6->volume_gbr6);
  EXPECT_EQ(gbr6->parallelism, baselines::Parallelism::Serial);
  EXPECT_EQ(baselines::find_package("CHARMM"), nullptr);
}

TEST(Packages, CutoffEpolApproachesNaiveForLargeCutoff) {
  const auto m = mol::generate_protein({.target_atoms = 300, .seed = 45});
  const auto surf = surface::build_surface(m, {.subdivision = 1});
  const auto born = core::naive_born_radii(m, surf);
  const double exact = core::naive_epol(m, born);
  const auto nb = full_nblist(m, 1e3);  // covers everything
  const double truncated = baselines::cutoff_epol(m, nb, born, {});
  EXPECT_NEAR(truncated, exact, 1e-9 * std::abs(exact));
}

TEST(Packages, CutoffTruncationLosesFarPairs) {
  const auto m = mol::generate_protein({.target_atoms = 800, .seed = 46});
  const auto surf = surface::build_surface(m, {.subdivision = 1});
  const auto born = core::naive_born_radii(m, surf);
  const double exact = core::naive_epol(m, born);
  const double cut8 =
      baselines::cutoff_epol(m, full_nblist(m, 8.0), born, {});
  EXPECT_NE(cut8, exact);
  // Still the right order of magnitude (cutoffs keep the dominant near
  // field).
  EXPECT_LT(std::abs(cut8 - exact), 0.5 * std::abs(exact));
}

class PackageRun : public ::testing::TestWithParam<const char*> {};

TEST_P(PackageRun, ProducesNegativeEnergyAndPositiveWork) {
  const auto* spec = baselines::find_package(GetParam());
  ASSERT_NE(spec, nullptr);
  const auto m = mol::generate_protein({.target_atoms = 350, .seed = 47});
  const auto result = baselines::run_package(*spec, m);
  EXPECT_FALSE(result.out_of_memory);
  EXPECT_LT(result.epol, 0.0);
  EXPECT_EQ(result.born.size(), m.size());
  EXPECT_GT(result.work.pairlist_pairs + result.work.grid_cells, 0u);
  EXPECT_GT(result.modeled_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllPackages, PackageRun,
                         ::testing::Values("Amber 12", "Gromacs 4.5.3",
                                           "NAMD 2.9", "Tinker 6.0", "GBr6"));

TEST(Packages, TinkerAndGbr6HitMemoryCeilingsOnLargeMolecules) {
  // §V-D: Tinker fails above ~12k atoms, GBr6 above ~13k. Use the modeled
  // budgets, not real allocation.
  const auto big = mol::generate_protein({.target_atoms = 14000, .seed = 48});
  const auto tinker = baselines::run_package(
      *baselines::find_package("Tinker 6.0"), big);
  EXPECT_TRUE(tinker.out_of_memory);
  const auto gbr6 =
      baselines::run_package(*baselines::find_package("GBr6"), big);
  EXPECT_TRUE(gbr6.out_of_memory);
  // Amber keeps going.
  const auto amber = baselines::run_package(
      *baselines::find_package("Amber 12"), big);
  EXPECT_FALSE(amber.out_of_memory);
}

TEST(Packages, CutoffOverrideShrinksWork) {
  const auto m = mol::generate_protein({.target_atoms = 2000, .seed = 49});
  const auto* spec = baselines::find_package("Gromacs 4.5.3");
  const auto wide = baselines::run_package(*spec, m);
  const auto narrow = baselines::run_package(*spec, m, {}, 0, 6.0);
  EXPECT_LT(narrow.work.pairlist_pairs, wide.work.pairlist_pairs);
  EXPECT_LT(narrow.nblist_bytes, wide.nblist_bytes);
}

TEST(Packages, EnergiesAgreeAcrossPackagesWithinModelSpread) {
  // Fig. 9's qualitative claim: HCT/OBC cutoff engines land in the same
  // ballpark as the exact algorithm; Still (Tinker) sits visibly lower.
  const auto m = mol::generate_protein({.target_atoms = 500, .seed = 50});
  const auto surf = surface::build_surface(m, {.subdivision = 1});
  const auto born = core::naive_born_radii(m, surf);
  const double naive_e = core::naive_epol(m, born);
  const auto amber = baselines::run_package(
      *baselines::find_package("Amber 12"), m);
  const auto tinker = baselines::run_package(
      *baselines::find_package("Tinker 6.0"), m);
  EXPECT_LT(amber.epol, 0.0);
  EXPECT_LT(std::abs(amber.epol - naive_e), 0.5 * std::abs(naive_e));
  // Tinker magnitude noticeably smaller than the exact one.
  EXPECT_LT(std::abs(tinker.epol), std::abs(amber.epol));
}
