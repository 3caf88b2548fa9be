// Build-equivalence differential for the Morton linear-octree pipeline:
// the sort-based builder must produce the same tree the legacy recursive
// partitioner produces (same topology, same leaf partitions, matching
// geometry), builds must be bit-identical across schedulers and worker
// counts, and the re-sort refit must be bit-identical to a from-scratch
// build on the pinned grid. Divergences that are by design (coincident
// points) are pinned explicitly.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "octgb/mol/generate.hpp"
#include "octgb/octree/dynamic.hpp"
#include "octgb/octree/octree.hpp"
#include "octgb/util/check.hpp"
#include "octgb/util/rng.hpp"
#include "octgb/ws/scheduler.hpp"

using namespace octgb;
using octree::BuildParams;
using octree::Octree;

namespace {

std::vector<geom::Vec3> random_points(std::size_t n, std::uint64_t seed,
                                      double extent = 40.0) {
  util::Xoshiro256 rng(seed);
  std::vector<geom::Vec3> pts(n);
  for (auto& p : pts)
    p = {rng.uniform(-extent, extent), rng.uniform(-extent, extent),
         rng.uniform(-extent, extent)};
  return pts;
}

std::vector<geom::Vec3> protein_points(int atoms, std::uint64_t seed) {
  const auto m = mol::generate_protein(
      {.target_atoms = static_cast<std::size_t>(atoms),
       .seed = static_cast<std::uint32_t>(seed)});
  std::vector<geom::Vec3> pts(m.size());
  for (std::size_t i = 0; i < m.size(); ++i) pts[i] = m.atom(i).pos;
  return pts;
}

/// Leaf partitions as sets of *original input ids* — the
/// representation-independent statement of "the same tree".
std::vector<std::set<std::uint32_t>> leaf_partition(const Octree& t) {
  std::vector<std::set<std::uint32_t>> out;
  for (const auto id : t.leaf_ids()) {
    const auto& n = t.node(id);
    out.emplace_back(t.point_index().begin() + n.begin,
                     t.point_index().begin() + n.end);
  }
  return out;
}

/// Topology must match field for field; geometry to tight tolerance (the
/// two builders visit a node's points in different orders, so centroid
/// sums associate differently in the last bits).
void expect_same_tree(const Octree& a, const Octree& b) {
  ASSERT_EQ(a.nodes().size(), b.nodes().size());
  ASSERT_EQ(a.num_points(), b.num_points());
  EXPECT_EQ(a.max_depth(), b.max_depth());
  EXPECT_EQ(a.leaf_ids(), b.leaf_ids());
  for (std::uint32_t i = 0; i < a.nodes().size(); ++i) {
    const auto& na = a.node(i);
    const auto& nb = b.node(i);
    EXPECT_EQ(na.begin, nb.begin) << "node " << i;
    EXPECT_EQ(na.end, nb.end) << "node " << i;
    EXPECT_EQ(na.first_child, nb.first_child) << "node " << i;
    EXPECT_EQ(na.child_count, nb.child_count) << "node " << i;
    EXPECT_EQ(na.depth, nb.depth) << "node " << i;
    EXPECT_NEAR(na.centroid.x, nb.centroid.x, 1e-9) << "node " << i;
    EXPECT_NEAR(na.centroid.y, nb.centroid.y, 1e-9) << "node " << i;
    EXPECT_NEAR(na.centroid.z, nb.centroid.z, 1e-9) << "node " << i;
    EXPECT_NEAR(na.radius, nb.radius, 1e-9) << "node " << i;
  }
  EXPECT_EQ(leaf_partition(a), leaf_partition(b));
}

/// Bitwise equality: every stored array identical to the last bit. Used
/// where the contract is determinism (same pipeline, different schedule)
/// rather than equivalence (different pipelines).
void expect_bit_identical(const Octree& a, const Octree& b) {
  ASSERT_EQ(a.nodes().size(), b.nodes().size());
  ASSERT_EQ(a.num_points(), b.num_points());
  for (std::uint32_t i = 0; i < a.nodes().size(); ++i) {
    const auto& na = a.node(i);
    const auto& nb = b.node(i);
    EXPECT_EQ(na.centroid, nb.centroid) << "node " << i;
    EXPECT_EQ(na.radius, nb.radius) << "node " << i;
    EXPECT_EQ(na.begin, nb.begin) << "node " << i;
    EXPECT_EQ(na.end, nb.end) << "node " << i;
    EXPECT_EQ(na.first_child, nb.first_child) << "node " << i;
    EXPECT_EQ(na.child_count, nb.child_count) << "node " << i;
    EXPECT_EQ(na.depth, nb.depth) << "node " << i;
  }
  EXPECT_TRUE(std::ranges::equal(a.point_index(), b.point_index()));
  EXPECT_TRUE(std::ranges::equal(a.points(), b.points()));
  EXPECT_TRUE(std::ranges::equal(a.keys(), b.keys()));
  EXPECT_TRUE(std::ranges::equal(a.soa_x(), b.soa_x()));
  EXPECT_TRUE(std::ranges::equal(a.soa_y(), b.soa_y()));
  EXPECT_TRUE(std::ranges::equal(a.soa_z(), b.soa_z()));
  EXPECT_EQ(a.grid(), b.grid());
  EXPECT_EQ(a.leaf_ids(), b.leaf_ids());
  EXPECT_EQ(a.max_depth(), b.max_depth());
}

}  // namespace

// ---- Morton vs legacy --------------------------------------------------------

class BuildEquivalence : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(BuildEquivalence, MortonMatchesLegacyOnRandomClouds) {
  const auto [n, leaf] = GetParam();
  BuildParams params;
  params.max_leaf_size = static_cast<std::uint32_t>(leaf);
  const auto pts = random_points(n, 9000 + n + leaf);
  const Octree morton = Octree::build(pts, params);
  const Octree legacy = Octree::build_legacy(pts, params);
  EXPECT_TRUE(morton.validate());
  EXPECT_TRUE(legacy.validate());
  ASSERT_TRUE(morton.has_morton());
  ASSERT_FALSE(legacy.has_morton());
  expect_same_tree(morton, legacy);
  EXPECT_EQ(morton.build_stats().morton_builds, 1u);
  EXPECT_EQ(legacy.build_stats().legacy_builds, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Clouds, BuildEquivalence,
    ::testing::Combine(::testing::Values(1, 7, 64, 500, 3000),
                       ::testing::Values(1, 8, 32, 128)));

TEST(BuildEquivalenceProtein, MortonMatchesLegacyOnProteinCloud) {
  // Clustered, realistic geometry (backbone + sidechains), not a uniform
  // cloud — exercises deep subtrees and uneven octant occupancy.
  const auto pts = protein_points(4000, 77);
  const Octree morton = Octree::build(pts);
  const Octree legacy = Octree::build_legacy(pts);
  expect_same_tree(morton, legacy);
}

TEST(BuildEquivalenceProtein, CoincidentPointsDivergeByDesign) {
  // Pinned divergence: equal Morton keys can never be separated by more
  // digits, so the Morton builder leafs the run immediately, while the
  // legacy partitioner chases the depth cap first. Same leaf *partition*,
  // different internal chain.
  std::vector<geom::Vec3> pts(64, {2, 2, 2});
  BuildParams params;
  params.max_leaf_size = 8;
  const Octree morton = Octree::build(pts, params);
  const Octree legacy = Octree::build_legacy(pts, params);
  EXPECT_TRUE(morton.validate());
  EXPECT_TRUE(legacy.validate());
  EXPECT_EQ(morton.nodes().size(), 1u);
  EXPECT_LE(morton.nodes().size(), legacy.nodes().size());
  EXPECT_EQ(leaf_partition(morton).size(), 1u);
}

TEST(BuildEquivalenceProtein, PinnedGridBuildMatchesAutoGrid) {
  // build() is defined as build_with_grid() over the points' own cubified
  // bounding box — the resort contract depends on this equivalence.
  const auto pts = protein_points(1500, 78);
  BuildParams params;
  const Octree auto_grid = Octree::build(pts, params);
  const Octree pinned = Octree::build_with_grid(
      pts, octree::MortonGrid::of(pts, params.grid_bits), params);
  expect_bit_identical(auto_grid, pinned);
}

// ---- scheduler determinism ---------------------------------------------------

TEST(SchedulerSortDeterminism, SerialAndParallelBuildsAreBitIdentical) {
  // A 1-worker scheduler runs the build serially on the radix sort; a
  // 4-worker one runs the parallel comparison sort.
  const auto pts = protein_points(9000, 79);
  ws::Scheduler one_worker(1), four_workers(4);
  Octree serial, parallel;
  one_worker.run([&] { serial = Octree::build(pts); });
  four_workers.run([&] { parallel = Octree::build(pts); });
  expect_bit_identical(serial, parallel);
  // The radix path reports its (deterministic) permute-pass count; the
  // comparison sort reports none.
  EXPECT_GT(serial.build_stats().sort_passes, 0u);
}

TEST(SchedulerSortDeterminism, TreeIsIdenticalAcrossWorkerCounts) {
  // The parallel merge sort must produce the same (key, id) sequence for
  // every worker count and every steal schedule — the tree (and therefore
  // every energy computed over it) cannot depend on the machine. Also the
  // TSan target for the sort path.
  const auto pts = protein_points(9000, 80);
  const BuildParams params;
  const Octree reference = Octree::build(pts, params);
  for (const int workers : {1, 2, 4}) {
    ws::Scheduler sched(workers);
    Octree t;
    sched.run([&] { t = Octree::build(pts, params); });
    expect_bit_identical(reference, t);
  }
}

// ---- re-sort refit -----------------------------------------------------------

namespace {

/// Small bounded jiggle, clamped into the build grid's cube: the cube is
/// the points' tight bounding box, so an unclamped outward step on a hull
/// atom would (correctly) escape the grid and force a rebuild instead.
std::vector<geom::Vec3> jiggle(std::span<const geom::Vec3> pts,
                               const octree::MortonGrid& grid,
                               std::uint64_t seed, double amp) {
  util::Xoshiro256 rng(seed);
  const double side = grid.cell * grid.side();
  std::vector<geom::Vec3> out(pts.begin(), pts.end());
  for (auto& p : out) {
    p.x = std::clamp(p.x + rng.uniform(-amp, amp), grid.origin.x,
                     grid.origin.x + side);
    p.y = std::clamp(p.y + rng.uniform(-amp, amp), grid.origin.y,
                     grid.origin.y + side);
    p.z = std::clamp(p.z + rng.uniform(-amp, amp), grid.origin.z,
                     grid.origin.z + side);
  }
  return out;
}

}  // namespace

TEST(Resort, BitIdenticalToFreshBuildOnThePinnedGrid) {
  const auto pts = protein_points(2000, 81);
  BuildParams params;
  Octree t = Octree::build(pts, params);
  const octree::MortonGrid grid = t.grid();
  const auto moved = jiggle(pts, grid, 82, 0.4);
  ASSERT_TRUE(t.resort(moved, params));
  EXPECT_TRUE(t.validate());
  const Octree fresh = Octree::build_with_grid(moved, grid, params);
  expect_bit_identical(t, fresh);
  EXPECT_EQ(t.build_stats().resorts, 1u);
  EXPECT_GT(t.build_stats().resort_moved, 0u);
}

TEST(Resort, NoMovementIsABitwiseNoop) {
  const auto pts = random_points(800, 83);
  BuildParams params;
  Octree t = Octree::build(pts, params);
  const Octree before = t;
  ASSERT_TRUE(t.resort(pts, params));
  expect_bit_identical(t, before);
  EXPECT_EQ(t.build_stats().resort_moved, 0u);
}

TEST(Resort, EscapedPointLeavesTreeUntouchedAndReportsFalse) {
  const auto pts = random_points(500, 84);
  BuildParams params;
  Octree t = Octree::build(pts, params);
  const Octree before = t;
  auto moved = std::vector<geom::Vec3>(pts.begin(), pts.end());
  moved[123] = {1e6, 1e6, 1e6};  // far outside the build cube
  EXPECT_FALSE(t.resort(moved, params));
  expect_bit_identical(t, before);  // strong exception-safety analogue
}

TEST(Resort, LegacyTreeRefusesToResort) {
  // Calling resort on a tree without Morton state is a programming error,
  // not a drift outcome — it trips a check instead of returning false.
  const auto pts = random_points(300, 85);
  Octree t = Octree::build_legacy(pts);
  EXPECT_THROW(t.resort(pts, {}), util::CheckError);
}

TEST(Resort, RepeatedResortsTrackFreshBuilds) {
  // A trajectory of jiggles: after every step the resorted tree must equal
  // the from-scratch build, and quality must never degrade (unlike refit,
  // which inflates leaves).
  const auto pts = protein_points(1200, 86);
  BuildParams params;
  Octree t = Octree::build(pts, params);
  const octree::MortonGrid grid = t.grid();
  std::vector<geom::Vec3> current(pts.begin(), pts.end());
  for (int step = 1; step <= 4; ++step) {
    current = jiggle(current, grid, 90 + step, 0.3);
    ASSERT_TRUE(t.resort(current, params)) << "step " << step;
    expect_bit_identical(t, Octree::build_with_grid(current, grid, params));
  }
  EXPECT_EQ(t.build_stats().resorts, 4u);
}

// ---- DynamicOctree resort policy ---------------------------------------------

TEST(DynamicResort, UpdateResortsInsteadOfRefitting) {
  const auto pts = protein_points(1500, 95);
  octree::DynamicOctree::Params params;
  params.enable_resort = true;
  octree::DynamicOctree dyn(pts, params);
  ASSERT_TRUE(dyn.tree().has_morton());
  const auto moved = jiggle(pts, dyn.tree().grid(), 96, 0.5);
  EXPECT_FALSE(dyn.update(moved));  // not a rebuild
  EXPECT_EQ(dyn.resorts(), 1u);
  EXPECT_EQ(dyn.refits(), 0u);
  EXPECT_EQ(dyn.rebuilds(), 0u);
  // Re-sorting restores build-fresh quality: no leaf inflation at all.
  EXPECT_LE(dyn.worst_leaf_inflation(), 1.0 + 1e-12);
  expect_bit_identical(dyn.tree(),
                       Octree::build_with_grid(moved, dyn.tree().grid(),
                                               params.build));
}

TEST(DynamicResort, EscapeFallsBackToFullRebuild) {
  const auto pts = random_points(600, 97);
  octree::DynamicOctree::Params params;
  params.enable_resort = true;
  octree::DynamicOctree dyn(pts, params);
  auto moved = std::vector<geom::Vec3>(pts.begin(), pts.end());
  moved[11] = {5e5, -5e5, 5e5};
  EXPECT_TRUE(dyn.update(moved));  // rebuild happened
  EXPECT_EQ(dyn.rebuilds(), 1u);
  EXPECT_EQ(dyn.resorts(), 0u);
  EXPECT_TRUE(dyn.tree().validate());
  EXPECT_EQ(dyn.tree().num_points(), pts.size());
}

TEST(DynamicResort, DisabledPolicyStillRefits) {
  const auto pts = random_points(600, 98);
  octree::DynamicOctree::Params params;
  params.enable_resort = false;  // default: the original refit policy
  octree::DynamicOctree dyn(pts, params);
  const auto moved = jiggle(pts, dyn.tree().grid(), 99, 0.05);
  EXPECT_FALSE(dyn.update(moved));
  EXPECT_EQ(dyn.refits(), 1u);
  EXPECT_EQ(dyn.resorts(), 0u);
}
