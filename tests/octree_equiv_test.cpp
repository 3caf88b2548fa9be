// Build-equivalence differential for the Morton linear-octree pipeline:
// the sort-based builder must produce the same tree the legacy recursive
// partitioner produces (same topology, same leaf partitions, matching
// geometry), and builds must be bit-identical across schedulers and worker
// counts. Divergences that are by design (coincident points) are pinned
// explicitly.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "octgb/mol/generate.hpp"
#include "octgb/octree/octree.hpp"
#include "octgb/util/rng.hpp"
#include "octgb/ws/scheduler.hpp"
#include "support/legacy_octree.hpp"

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
  EXPECT_TRUE(std::ranges::equal(a.soa_x(), b.soa_x()));
  EXPECT_TRUE(std::ranges::equal(a.soa_y(), b.soa_y()));
  EXPECT_TRUE(std::ranges::equal(a.soa_z(), b.soa_z()));
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
  const Octree legacy = test_support::build_legacy(pts, params);
  EXPECT_TRUE(morton.validate());
  EXPECT_TRUE(legacy.validate());
  expect_same_tree(morton, legacy);
  EXPECT_EQ(morton.build_stats().morton_builds, 1u);
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
  const Octree legacy = test_support::build_legacy(pts);
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
  const Octree legacy = test_support::build_legacy(pts, params);
  EXPECT_TRUE(morton.validate());
  EXPECT_TRUE(legacy.validate());
  EXPECT_EQ(morton.nodes().size(), 1u);
  EXPECT_LE(morton.nodes().size(), legacy.nodes().size());
  EXPECT_EQ(leaf_partition(morton).size(), 1u);
}

TEST(BuildEquivalenceProtein, ColdBuildCountersAreFlat) {
  // One cold build on either side of the 8,192-point threshold at which
  // the default build sorts in parallel on a private pool: exactly one
  // build, every point sorted once, and emission counts equal to the
  // tree's.
  for (const std::size_t n : {std::size_t{3000}, std::size_t{12000}}) {
    const auto pts = random_points(n, 87);
    const Octree t = Octree::build(pts);
    const perf::TreeBuildCounters& stats = t.build_stats();
    EXPECT_EQ(stats.morton_builds, 1u) << n;
    EXPECT_EQ(stats.points_sorted, n) << n;
    EXPECT_EQ(stats.nodes_emitted, t.nodes().size()) << n;
    EXPECT_EQ(stats.leaves_emitted, t.leaf_ids().size()) << n;
  }
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
