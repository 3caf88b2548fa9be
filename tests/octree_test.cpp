// Tests for the octree and the nblist baseline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <set>
#include <string>

#include "octgb/mol/generate.hpp"
#include "octgb/octree/nblist.hpp"
#include "octgb/octree/octree.hpp"
#include "octgb/util/check.hpp"
#include "octgb/util/rng.hpp"

using namespace octgb;
using octree::BuildParams;
using octree::NbList;
using octree::Octree;

namespace {

std::vector<geom::Vec3> random_points(std::size_t n, std::uint64_t seed,
                                      double extent = 50.0) {
  util::Xoshiro256 rng(seed);
  std::vector<geom::Vec3> pts(n);
  for (auto& p : pts)
    p = {rng.uniform(-extent, extent), rng.uniform(-extent, extent),
         rng.uniform(-extent, extent)};
  return pts;
}

}  // namespace

TEST(Octree, EmptyInput) {
  const Octree t = Octree::build({});
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.num_points(), 0u);
  EXPECT_TRUE(t.validate());
}

TEST(Octree, SinglePointIsRootLeaf) {
  const std::vector<geom::Vec3> pts = {{1, 2, 3}};
  const Octree t = Octree::build(pts);
  ASSERT_EQ(t.nodes().size(), 1u);
  EXPECT_TRUE(t.root().is_leaf());
  EXPECT_EQ(t.root().centroid, (geom::Vec3{1, 2, 3}));
  EXPECT_DOUBLE_EQ(t.root().radius, 0.0);
  EXPECT_TRUE(t.validate());
}

class OctreeBuild : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(OctreeBuild, InvariantsHoldForRandomClouds) {
  const auto [n, leaf] = GetParam();
  BuildParams params;
  params.max_leaf_size = static_cast<std::uint32_t>(leaf);
  const auto pts = random_points(n, 1000 + n + leaf);
  const Octree t = Octree::build(pts, params);
  EXPECT_TRUE(t.validate());
  EXPECT_EQ(t.num_points(), static_cast<std::size_t>(n));
  // Every leaf within the size bound (except depth-capped degenerates,
  // which random clouds don't produce).
  for (const auto id : t.leaf_ids())
    EXPECT_LE(t.node(id).size(), params.max_leaf_size);
  // Leaves partition the point range in order.
  std::uint32_t cursor = 0;
  for (const auto id : t.leaf_ids()) {
    EXPECT_EQ(t.node(id).begin, cursor);
    cursor = t.node(id).end;
  }
  EXPECT_EQ(cursor, t.num_points());
}

INSTANTIATE_TEST_SUITE_P(
    Clouds, OctreeBuild,
    ::testing::Combine(::testing::Values(1, 7, 64, 500, 3000),
                       ::testing::Values(1, 8, 32, 128)));

TEST(Octree, PermutationIsABijection) {
  const auto pts = random_points(777, 2);
  const Octree t = Octree::build(pts);
  std::set<std::uint32_t> seen(t.point_index().begin(),
                               t.point_index().end());
  EXPECT_EQ(seen.size(), pts.size());
  // Permuted points match originals through the index.
  for (std::size_t pos = 0; pos < pts.size(); ++pos)
    EXPECT_EQ(t.point(pos), pts[t.point_index()[pos]]);
}

TEST(Octree, CoincidentPointsTerminates) {
  // 100 identical points can never be separated spatially; the depth cap
  // and degenerate-split guard must produce a valid (leaf-heavy) tree.
  std::vector<geom::Vec3> pts(100, {1, 1, 1});
  BuildParams params;
  params.max_leaf_size = 8;
  const Octree t = Octree::build(pts, params);
  EXPECT_TRUE(t.validate());
  EXPECT_EQ(t.num_points(), 100u);
}

TEST(Octree, RadiusEnclosesSubtreePoints) {
  const auto pts = random_points(2000, 3);
  const Octree t = Octree::build(pts);
  for (const auto& n : t.nodes()) {
    for (std::uint32_t i = n.begin; i < n.end; ++i)
      EXPECT_LE(geom::dist(n.centroid, t.point(i)), n.radius + 1e-9);
  }
}

TEST(Octree, FootprintLinearInPoints) {
  // The paper's memory claim: octree size is linear in the point count and
  // independent of any approximation parameter.
  const auto small = Octree::build(random_points(1000, 4));
  const auto large = Octree::build(random_points(8000, 5));
  const double ratio = static_cast<double>(large.footprint_bytes()) /
                       static_cast<double>(small.footprint_bytes());
  EXPECT_GT(ratio, 4.0);
  EXPECT_LT(ratio, 16.0);
}

TEST(Octree, DepthIsLogarithmicForUniformClouds) {
  const auto pts = random_points(10000, 6);
  BuildParams params;
  params.max_leaf_size = 16;
  const Octree t = Octree::build(pts, params);
  EXPECT_LE(std::ranges::max(t.nodes(), {}, &Octree::Node::depth).depth, 12);
}

TEST(Octree, ChildrenAreContiguousAndAfterParent) {
  const auto pts = random_points(3000, 7);
  const Octree t = Octree::build(pts);
  for (std::uint32_t id = 0; id < t.nodes().size(); ++id) {
    const auto& n = t.node(id);
    if (n.is_leaf()) continue;
    EXPECT_GT(n.first_child, id);  // enables bottom-up reverse sweeps
    for (std::uint8_t c = 1; c < n.child_count; ++c) {
      EXPECT_EQ(t.node(n.first_child + c).begin,
                t.node(n.first_child + c - 1).end);
    }
  }
}

// ---- nblist ------------------------------------------------------------------

TEST(NbList, MatchesBruteForceOnRandomCloud) {
  const auto pts = random_points(400, 8, 15.0);
  const double cutoff = 6.0;
  const NbList list = NbList::build(pts, {.cutoff = cutoff, .max_bytes = 0});
  for (std::size_t i = 0; i < pts.size(); ++i) {
    std::set<std::uint32_t> expected;
    for (std::uint32_t j = 0; j < pts.size(); ++j) {
      if (j != i && geom::dist(pts[i], pts[j]) <= cutoff) expected.insert(j);
    }
    const auto got = list.neighbors(i);
    std::set<std::uint32_t> actual(got.begin(), got.end());
    EXPECT_EQ(actual, expected) << "atom " << i;
  }
}

TEST(NbList, PairsAreSymmetric) {
  const auto pts = random_points(300, 9, 20.0);
  const NbList list = NbList::build(pts, {.cutoff = 8.0, .max_bytes = 0});
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::uint32_t j : list.neighbors(i)) {
      const auto back = list.neighbors(j);
      EXPECT_NE(std::find(back.begin(), back.end(), i), back.end());
    }
  }
}

TEST(NbList, MemoryGrowsCubicallyWithCutoff) {
  // The §II claim driving the whole octree-vs-nblist argument.
  const auto m = mol::generate_protein({.target_atoms = 3000, .seed = 10});
  std::vector<geom::Vec3> pts(m.size());
  for (std::size_t i = 0; i < m.size(); ++i) pts[i] = m.atom(i).pos;
  const NbList c6 = NbList::build(pts, {.cutoff = 6.0, .max_bytes = 0});
  const NbList c12 = NbList::build(pts, {.cutoff = 12.0, .max_bytes = 0});
  const double growth = static_cast<double>(c12.total_pairs()) /
                        static_cast<double>(c6.total_pairs());
  // (12/6)³ = 8 in the bulk; surface effects pull it below.
  EXPECT_GT(growth, 3.0);
  EXPECT_LT(growth, 9.0);
}

TEST(NbList, ByteBudgetThrowsSimulatedOom) {
  const auto pts = random_points(2000, 11, 10.0);  // dense
  EXPECT_THROW(NbList::build(pts, {.cutoff = 15.0, .max_bytes = 1024}),
               octree::NbListOutOfMemory);
  // Unlimited budget succeeds on the same input.
  EXPECT_NO_THROW(NbList::build(pts, {.cutoff = 15.0, .max_bytes = 0}));
}

TEST(NbList, EmptyAndSinglePoint) {
  const NbList empty = NbList::build({}, {.cutoff = 5.0});
  EXPECT_EQ(empty.num_points(), 0u);
  const std::vector<geom::Vec3> one = {{0, 0, 0}};
  const NbList single = NbList::build(one, {.cutoff = 5.0});
  EXPECT_EQ(single.num_points(), 1u);
  EXPECT_TRUE(single.neighbors(0).empty());
}

TEST(NbList, OctreeFootprintIndependentOfCutoffUnlikeNblist) {
  const auto m = mol::generate_protein({.target_atoms = 2000, .seed = 12});
  std::vector<geom::Vec3> pts(m.size());
  for (std::size_t i = 0; i < m.size(); ++i) pts[i] = m.atom(i).pos;
  const Octree t = Octree::build(pts);
  const std::size_t octree_bytes = t.footprint_bytes();  // no cutoff at all
  const NbList small_cut = NbList::build(pts, {.cutoff = 4.0, .max_bytes = 0});
  const NbList big_cut = NbList::build(pts, {.cutoff = 16.0, .max_bytes = 0});
  EXPECT_GT(big_cut.footprint_bytes(), 4 * small_cut.footprint_bytes());
  EXPECT_LT(octree_bytes, big_cut.footprint_bytes());
}

// ---- Morton location codes ---------------------------------------------------

#include "octgb/octree/morton.hpp"
#include "support/morton_oracle.hpp"

namespace {

constexpr std::uint32_t kCoordMax = (1u << octree::kMortonMaxBits) - 1;

std::uint32_t random_coord(util::Xoshiro256& rng) {
  return static_cast<std::uint32_t>(rng()) & kCoordMax;
}

}  // namespace

TEST(Morton, SpreadCompactRoundTripsEvery21BitValue) {
  util::Xoshiro256 rng(31);
  std::vector<std::uint64_t> values = {0, 1, kCoordMax, kCoordMax - 1,
                                       1u << 20, 0x155555, 0x0aaaaa};
  for (int i = 0; i < 2000; ++i) values.push_back(random_coord(rng));
  for (const std::uint64_t v : values) {
    EXPECT_EQ(test_support::morton_compact(octree::morton_spread(v)), v);
    // Spread bits stay inside the every-third-bit mask.
    EXPECT_EQ(octree::morton_spread(v) & ~0x1249249249249249ULL, 0u);
  }
}

TEST(Morton, EncodeDecodeIdentityIncludingBoundaryCoords) {
  util::Xoshiro256 rng(32);
  std::vector<test_support::MortonCoords> coords = {
      {0, 0, 0},          {kCoordMax, kCoordMax, kCoordMax},
      {kCoordMax, 0, 0},  {0, kCoordMax, 0},
      {0, 0, kCoordMax},  {1, 2, 4},
      {1u << 20, 1, 0}};
  for (int i = 0; i < 2000; ++i)
    coords.push_back({random_coord(rng), random_coord(rng), random_coord(rng)});
  for (const auto& c : coords) {
    const std::uint64_t key = octree::morton_encode(c.x, c.y, c.z);
    EXPECT_EQ(key >> 63, 0u);  // 3×21 bits leave the top bit clear
    EXPECT_EQ(test_support::morton_decode(key), c);
  }
}

TEST(Morton, DigitMatchesLegacyOctantNumbering) {
  // The whole linear-octree construction rests on this: the 3-bit digit at
  // level L is exactly the (x | y<<1 | z<<2) octant index the recursive
  // partitioner would pick at that depth.
  util::Xoshiro256 rng(33);
  const int bits = octree::kMortonMaxBits;
  for (int i = 0; i < 500; ++i) {
    const std::uint32_t x = random_coord(rng), y = random_coord(rng),
                        z = random_coord(rng);
    const std::uint64_t key = octree::morton_encode(x, y, z);
    for (int level = 0; level < bits; ++level) {
      const int shift = bits - 1 - level;
      const unsigned expected = ((x >> shift) & 1u) | (((y >> shift) & 1u) << 1)
                                | (((z >> shift) & 1u) << 2);
      EXPECT_EQ(test_support::morton_digit(key, level, bits), expected);
    }
  }
}

TEST(Morton, SortedKeyOrderIsDepthFirstOctantOrder) {
  // On a built tree: every node's key range shares the node's digit path,
  // and sibling ranges appear in strictly increasing digit order — sorted
  // key order *is* depth-first traversal order.
  const auto pts = random_points(2500, 34);
  const Octree t = Octree::build(pts);
  const int bits = octree::kMortonMaxBits;
  const octree::MortonGrid grid = octree::MortonGrid::of(pts, bits);
  std::vector<std::uint64_t> keys;
  for (const std::uint32_t id : t.point_index())
    keys.push_back(grid.key(pts[id]));
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  for (const auto& n : t.nodes()) {
    if (n.is_leaf()) continue;
    unsigned prev_digit = 0;
    for (std::uint8_t c = 0; c < n.child_count; ++c) {
      const auto& ch = t.node(n.first_child + c);
      // Within one child, every key carries the same digit at the
      // parent's depth; across siblings those digits strictly increase.
      const unsigned digit =
          test_support::morton_digit(keys[ch.begin], n.depth, bits);
      EXPECT_EQ(test_support::morton_digit(keys[ch.end - 1], n.depth, bits),
                digit);
      if (c > 0) {
        EXPECT_GT(digit, prev_digit);
      }
      prev_digit = digit;
    }
  }
}

TEST(MortonGridT, KeyOfCellCenterRoundTrips) {
  const auto pts = random_points(600, 35);
  const octree::MortonGrid g = octree::MortonGrid::of(pts, 12);
  for (const auto& p : pts) {
    const std::uint64_t k = g.key(p);
    EXPECT_EQ(g.key(test_support::cell_center(g, k)), k);
  }
}

TEST(MortonGridT, QuantizeClampsOutOfCubeCoordinates) {
  const std::vector<geom::Vec3> pts = {{0, 0, 0}, {10, 10, 10}};
  const octree::MortonGrid g = octree::MortonGrid::of(pts, 8);
  EXPECT_EQ(g.quantize(g.origin.x - 1.0, g.origin.x), 0u);
  const double side_len = g.cell * g.side();
  EXPECT_EQ(g.quantize(g.origin.x + side_len + 1.0, g.origin.x),
            g.side() - 1);
  // Exact corner coordinates land in the first / last cell.
  EXPECT_EQ(g.quantize(g.origin.x, g.origin.x), 0u);
  EXPECT_LE(g.quantize(g.origin.x + side_len, g.origin.x), g.side() - 1);
}

TEST(MortonGridT, QuantizeIsDefinedForNonFiniteCoordinates) {
  // The key pass quantizes every point before the builder rejects the
  // non-finite ones, so quantize() must clamp them without an undefined
  // float-to-integer conversion.
  const std::vector<geom::Vec3> pts = {{0, 0, 0}, {10, 10, 10}};
  const octree::MortonGrid g = octree::MortonGrid::of(pts, 8);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(g.quantize(std::numeric_limits<double>::quiet_NaN(), g.origin.x),
            0u);
  EXPECT_EQ(g.quantize(inf, g.origin.x), g.side() - 1);
  EXPECT_EQ(g.quantize(-inf, g.origin.x), 0u);
}

TEST(Morton, CoincidentPointsShareOneKeyAndOneLeaf) {
  // Equal keys can never be separated by more digits: the Morton builder
  // makes the run a leaf immediately (no depth-capped degenerate chains).
  std::vector<geom::Vec3> pts(100, {1, 1, 1});
  BuildParams params;
  params.max_leaf_size = 8;
  const Octree t = Octree::build(pts, params);
  EXPECT_TRUE(t.validate());
  ASSERT_EQ(t.nodes().size(), 1u);  // root itself is the leaf
  EXPECT_EQ(t.root().size(), 100u);
}

// ---- non-finite input --------------------------------------------------------

#include "octgb/ws/scheduler.hpp"

namespace {

/// One non-finite coordinate: NaN, +inf or −inf on one axis.
struct NonFinite {
  double value;
  int axis;
};

std::vector<NonFinite> non_finite_cases() {
  std::vector<NonFinite> out;
  for (double v : {std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity()})
    for (int axis = 0; axis < 3; ++axis) out.push_back({v, axis});
  return out;
}

std::string label(const NonFinite& c) {
  return std::to_string(c.value) + " on axis " + "xyz"[c.axis];
}

/// `pts` with one coordinate of point `i` replaced.
std::vector<geom::Vec3> poisoned(std::vector<geom::Vec3> pts, std::size_t i,
                                 const NonFinite& c) {
  double* coord[] = {&pts[i].x, &pts[i].y, &pts[i].z};
  *coord[c.axis] = c.value;
  return pts;
}

/// `call` must throw a CheckError naming entry point `op` and point `i`.
template <class Call>
void expect_rejects(const Call& call, const char* op, std::size_t i) {
  try {
    call();
    ADD_FAILURE() << op << " accepted a non-finite point";
  } catch (const octgb::util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(op), std::string::npos) << what;
    EXPECT_NE(what.find("point " + std::to_string(i) + " "),
              std::string::npos)
        << what;
  }
}

constexpr std::size_t kBad = 137;

}  // namespace

TEST(OctreeNonFinite, BuildRejectsNanAndInfOnEveryAxis) {
  const auto pts = random_points(200, 41);
  for (const NonFinite& c : non_finite_cases()) {
    SCOPED_TRACE(label(c));
    const auto bad = poisoned(pts, kBad, c);
    expect_rejects([&] { (void)Octree::build(bad); }, "Octree::build", kBad);
  }
  // Above the private-pool threshold, and under a 4-worker scheduler, the
  // flag is raised inside the parallel key pass.
  const auto big = random_points(10000, 42);
  for (const NonFinite& c : non_finite_cases()) {
    SCOPED_TRACE(label(c));
    const auto bad = poisoned(big, 9001, c);
    expect_rejects([&] { (void)Octree::build(bad); }, "Octree::build", 9001);
    ws::Scheduler sched(4);
    expect_rejects([&] { sched.run([&] { (void)Octree::build(bad); }); },
                   "Octree::build", 9001);
  }
}

TEST(OctreeNonFinite, RefitRejectsNanAndInfOnEveryAxisAndKeepsTheTree) {
  const auto pts = random_points(200, 44);
  Octree t = Octree::build(pts);
  const Octree fresh = Octree::build(pts);
  const Octree::Node root = t.root();
  for (const NonFinite& c : non_finite_cases()) {
    SCOPED_TRACE(label(c));
    const auto bad = poisoned(pts, kBad, c);
    expect_rejects([&] { t.refit(bad); }, "Octree::refit", kBad);
    // Rejected before the first write: points and geometry untouched.
    EXPECT_TRUE(std::ranges::equal(t.soa_x(), fresh.soa_x()));
    EXPECT_TRUE(std::ranges::equal(t.soa_y(), fresh.soa_y()));
    EXPECT_TRUE(std::ranges::equal(t.soa_z(), fresh.soa_z()));
    EXPECT_EQ(t.root().centroid, root.centroid);
    EXPECT_EQ(t.root().radius, root.radius);
  }
}

TEST(OctreeNonFinite, FromPartsRejectsNanAndInfOnEveryAxis) {
  // Assembling a tree from parts whose points carry a NaN or infinity
  // fails with an error that names the tree position.
  const Octree t = Octree::build(random_points(200, 46));
  std::vector<geom::Vec3> points(t.num_points());
  for (std::uint32_t i = 0; i < points.size(); ++i) points[i] = t.point(i);
  for (const NonFinite& c : non_finite_cases()) {
    SCOPED_TRACE(label(c));
    const auto bad = poisoned(points, kBad, c);
    expect_rejects(
        [&] {
          (void)Octree::from_parts(
              {t.nodes().begin(), t.nodes().end()}, bad,
              {t.point_index().begin(), t.point_index().end()});
        },
        "Octree::from_parts", kBad);
  }
}
