// Tests for the distributed / distributed-shared hybrid driver (Fig. 4)
// running on the real mpp runtime.

#include <gtest/gtest.h>

#include <cmath>

#include "octgb/core/hybrid.hpp"
#include "octgb/mol/generate.hpp"
#include "octgb/surface/surface.hpp"

using namespace octgb;
using core::GBEngine;
using core::HybridConfig;
using core::run_hybrid;

namespace {

struct Fixture {
  mol::Molecule molecule;
  surface::Surface surf;
  GBEngine engine;
  double reference_epol;
  std::vector<double> reference_born;

  explicit Fixture(std::size_t atoms = 600)
      : molecule(mol::generate_protein({.target_atoms = atoms, .seed = 31})),
        surf(surface::build_surface(molecule, {.subdivision = 1})),
        engine(molecule, surf) {
    const auto r = engine.compute();
    reference_epol = r.epol;
    reference_born = r.born;
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void expect_matches_reference(const core::HybridResult& r,
                              double rel = 1e-9) {
  const Fixture& f = fixture();
  EXPECT_NEAR(r.epol, f.reference_epol, rel * std::abs(f.reference_epol));
  ASSERT_EQ(r.born.size(), f.reference_born.size());
  for (std::size_t i = 0; i < r.born.size(); ++i)
    EXPECT_NEAR(r.born[i], f.reference_born[i],
                rel * f.reference_born[i] + 1e-12)
        << "atom " << i;
}

}  // namespace

TEST(Hybrid, SingleRankSingleThreadEqualsEngine) {
  HybridConfig cfg;
  cfg.ranks = 1;
  const auto r = run_hybrid(fixture().engine, cfg);
  expect_matches_reference(r, 1e-12);
}

/// OCT_MPI (P ranks × 1 thread): the parameterized P sweep is the key
/// distributed-correctness property — every P must give the same physics.
class HybridRanks : public ::testing::TestWithParam<int> {};

TEST_P(HybridRanks, PureDistributedMatchesSerialReference) {
  HybridConfig cfg;
  cfg.ranks = GetParam();
  cfg.topology.ranks_per_node = 4;
  const auto r = run_hybrid(fixture().engine, cfg);
  expect_matches_reference(r);
  EXPECT_EQ(r.work_per_rank.size(), static_cast<std::size_t>(GetParam()));
  EXPECT_EQ(r.comm_per_rank.size(), static_cast<std::size_t>(GetParam()));
}

TEST_P(HybridRanks, NodeBasedEnergyIsIdenticalAcrossP) {
  // §IV: node-based division has *constant* error w.r.t. P, because each
  // rank always handles whole leaves. Energies must agree bitwise-tightly
  // across P (only the reduce order differs).
  HybridConfig cfg;
  cfg.ranks = GetParam();
  const auto r = run_hybrid(fixture().engine, cfg);
  HybridConfig cfg1;
  cfg1.ranks = 1;
  const auto r1 = run_hybrid(fixture().engine, cfg1);
  EXPECT_NEAR(r.epol, r1.epol, 1e-9 * std::abs(r1.epol));
}

INSTANTIATE_TEST_SUITE_P(RankCounts, HybridRanks,
                         ::testing::Values(2, 3, 4, 7));

TEST(Hybrid, HybridModeMatchesReference) {
  // OCT_MPI+CILK: 2 ranks × 3 threads.
  HybridConfig cfg;
  cfg.ranks = 2;
  cfg.threads_per_rank = 3;
  const auto r = run_hybrid(fixture().engine, cfg);
  expect_matches_reference(r, 1e-8);
  EXPECT_GT(r.work_total.spawns, 0u);
}

TEST(Hybrid, WeightedDivisionMatchesReference) {
  HybridConfig cfg;
  cfg.ranks = 4;
  cfg.weighted_division = true;
  const auto r = run_hybrid(fixture().engine, cfg);
  expect_matches_reference(r);
}

TEST(Hybrid, AtomBasedEpolIsCloseButDivisionDependent) {
  // Atom-based division changes which (U, V) pairs are admissible, so the
  // energy moves with P — the effect the paper reports (§IV). It must stay
  // within the approximation band but generally differs across P.
  const Fixture& f = fixture();
  std::vector<double> energies;
  for (int P : {1, 2, 5}) {
    HybridConfig cfg;
    cfg.ranks = P;
    cfg.atom_based_epol = true;
    const auto r = run_hybrid(f.engine, cfg);
    EXPECT_NEAR(r.epol, f.reference_epol,
                0.02 * std::abs(f.reference_epol));
    energies.push_back(r.epol);
  }
  // The P = 1 atom-based energy differs from at least one multi-P value
  // (identical values would mean division boundaries don't matter, which
  // would contradict the paper's §IV observation).
  EXPECT_TRUE(energies[0] != energies[1] || energies[0] != energies[2]);
}

TEST(Hybrid, CommunicationVolumeScalesWithRanks) {
  HybridConfig cfg2, cfg8;
  cfg2.ranks = 2;
  cfg8.ranks = 8;
  const auto r2 = run_hybrid(fixture().engine, cfg2);
  const auto r8 = run_hybrid(fixture().engine, cfg8);
  auto total_bytes = [](const core::HybridResult& r) {
    std::uint64_t b = 0;
    for (const auto& c : r.comm_per_rank)
      b += c.bytes_internode + c.bytes_intranode;
    return b;
  };
  EXPECT_GT(total_bytes(r8), total_bytes(r2));
}

TEST(Hybrid, WorkIsReasonablyBalancedAcrossRanks) {
  HybridConfig cfg;
  cfg.ranks = 4;
  const auto r = run_hybrid(fixture().engine, cfg);
  std::uint64_t min_work = ~0ull, max_work = 0;
  for (const auto& w : r.work_per_rank) {
    const std::uint64_t t = w.born_exact + w.born_approx + w.epol_exact +
                            w.epol_bins;
    min_work = std::min(min_work, t);
    max_work = std::max(max_work, t);
  }
  EXPECT_LT(static_cast<double>(max_work),
            4.0 * static_cast<double>(min_work))
      << "static division should be balanced within a small factor";
}

TEST(Hybrid, BytesPerRankCoversReplicatedData) {
  HybridConfig cfg;
  cfg.ranks = 3;
  const auto r = run_hybrid(fixture().engine, cfg);
  EXPECT_GE(r.bytes_per_rank, fixture().engine.footprint_bytes());
}

TEST(Hybrid, IntraVsInterNodeTrafficFollowsTopology) {
  // 4 ranks on one node: no inter-node traffic at all.
  HybridConfig all_one_node;
  all_one_node.ranks = 4;
  all_one_node.topology.ranks_per_node = 4;
  const auto r1 = run_hybrid(fixture().engine, all_one_node);
  for (const auto& c : r1.comm_per_rank) EXPECT_EQ(c.bytes_internode, 0u);

  // 4 ranks across 4 nodes: no intra-node traffic.
  HybridConfig spread;
  spread.ranks = 4;
  spread.topology.ranks_per_node = 1;
  const auto r2 = run_hybrid(fixture().engine, spread);
  for (const auto& c : r2.comm_per_rank) EXPECT_EQ(c.bytes_intranode, 0u);
}

TEST(Hybrid, NonFiniteEnergyIsReturnedLikeTheEngine) {
  // Charges of ±1e200 are finite and pass ingress, but their products
  // overflow, so compute() returns a non-finite energy. Every rank holds
  // the root's broadcast copy of it, so the ranks agree bit for bit and
  // run_hybrid returns it instead of reporting a disagreement.
  mol::Molecule molecule =
      mol::generate_protein({.target_atoms = 200, .seed = 21});
  for (std::size_t i = 0; i < molecule.size(); ++i)
    molecule.atoms()[i].charge = i % 2 == 0 ? 1e200 : -1e200;
  const auto surf = surface::build_surface(molecule, {.subdivision = 1});
  const GBEngine engine(molecule, surf);
  const double ref = engine.compute().epol;
  ASSERT_FALSE(std::isfinite(ref));
  for (int ranks : {2, 3}) {
    HybridConfig cfg;
    cfg.ranks = ranks;
    const auto r = run_hybrid(engine, cfg);
    EXPECT_FALSE(std::isfinite(r.epol)) << ranks << " ranks";
    EXPECT_EQ(std::isnan(r.epol), std::isnan(ref)) << ranks << " ranks";
  }
}
