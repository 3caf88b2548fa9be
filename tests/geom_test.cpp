// Tests for octgb::geom — vectors, boxes, transforms, quadrature, meshes.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "octgb/geom/aabb.hpp"
#include "octgb/geom/mesh.hpp"
#include "octgb/geom/quadrature.hpp"
#include "octgb/geom/transform.hpp"
#include "octgb/geom/vec3.hpp"
#include "octgb/util/rng.hpp"
#include "support/mesh_oracle.hpp"

using octgb::geom::Aabb;
using octgb::geom::Mat3;
using octgb::geom::RigidTransform;
using octgb::geom::Vec3;

// ---- Vec3 ------------------------------------------------------------------

TEST(Vec3, Arithmetic) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(a + b, (Vec3{5, 7, 9}));
  EXPECT_EQ(b - a, (Vec3{3, 3, 3}));
  EXPECT_EQ(a * 2.0, (Vec3{2, 4, 6}));
  EXPECT_EQ(2.0 * a, a * 2.0);
  EXPECT_EQ(-a, (Vec3{-1, -2, -3}));
}

TEST(Vec3, DotAndCross) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
  EXPECT_EQ(a.cross(b), (Vec3{-3, 6, -3}));
  EXPECT_DOUBLE_EQ(a.cross(b).dot(a), 0.0);
  EXPECT_DOUBLE_EQ(a.cross(b).dot(b), 0.0);
}

TEST(Vec3, NormAndNormalize) {
  const Vec3 v{3, 4, 0};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.normalized().norm(), 1.0);
  EXPECT_EQ(Vec3{}.normalized(), Vec3{});
}

TEST(Vec3, Distance) {
  EXPECT_DOUBLE_EQ(octgb::geom::dist({0, 0, 0}, {1, 2, 2}), 3.0);
  EXPECT_DOUBLE_EQ(octgb::geom::dist2({0, 0, 0}, {1, 2, 2}), 9.0);
}

// ---- Aabb ------------------------------------------------------------------

TEST(Aabb, EmptyAndExpand) {
  Aabb b;
  EXPECT_TRUE(b.empty());
  b.expand({1, 2, 3});
  EXPECT_FALSE(b.empty());
  EXPECT_EQ(b.lo, b.hi);
  b.expand({-1, 4, 0});
  EXPECT_EQ(b.lo, (Vec3{-1, 2, 0}));
  EXPECT_EQ(b.hi, (Vec3{1, 4, 3}));
}

TEST(Aabb, CenterExtentRadius) {
  Aabb b{{0, 0, 0}, {2, 4, 6}};
  EXPECT_EQ(b.center(), (Vec3{1, 2, 3}));
  EXPECT_DOUBLE_EQ(b.max_extent(), 6.0);
  EXPECT_DOUBLE_EQ(b.radius(), std::sqrt(4 + 16 + 36) / 2);
}

TEST(Aabb, ContainsIsBoundaryInclusive) {
  Aabb b{{0, 0, 0}, {1, 1, 1}};
  EXPECT_TRUE(b.contains({0.5, 0.5, 0.5}));
  EXPECT_TRUE(b.contains({0, 0, 0}));
  EXPECT_FALSE(b.contains({1.01, 0.5, 0.5}));
}

TEST(Aabb, CubifiedIsCubeContainingBox) {
  Aabb b{{0, 0, 0}, {2, 4, 8}};
  const Aabb c = b.cubified();
  const Vec3 e = c.extent();
  EXPECT_DOUBLE_EQ(e.x, 8.0);
  EXPECT_DOUBLE_EQ(e.y, 8.0);
  EXPECT_DOUBLE_EQ(e.z, 8.0);
  EXPECT_TRUE(c.contains(b.lo));
  EXPECT_TRUE(c.contains(b.hi));
  EXPECT_EQ(c.center(), b.center());
}

TEST(Aabb, OfPointSet) {
  const std::vector<Vec3> pts = {{0, 1, 2}, {3, -1, 0}, {1, 1, 1}};
  const Aabb b = Aabb::of(pts);
  EXPECT_EQ(b.lo, (Vec3{0, -1, 0}));
  EXPECT_EQ(b.hi, (Vec3{3, 1, 2}));
}

// ---- transforms ------------------------------------------------------------

TEST(Transform, AxisAngleIsOrthogonal) {
  const Mat3 r = Mat3::axis_angle({1, 2, 3}, 0.7);
  Mat3 rt;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) rt.m[j * 3 + i] = r.m[i * 3 + j];
  const Mat3 p = rt * r;  // RᵀR = I for a rotation
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j)
      EXPECT_NEAR(p.m[i * 3 + j], i == j ? 1.0 : 0.0, 1e-12) << i << j;
}

TEST(Transform, RotationPreservesLengthsAndAngles) {
  const Mat3 r = Mat3::euler_zyx(0.3, -1.1, 2.0);
  octgb::util::Xoshiro256 rng(5);
  for (int i = 0; i < 50; ++i) {
    const Vec3 a{rng.normal(), rng.normal(), rng.normal()};
    const Vec3 b{rng.normal(), rng.normal(), rng.normal()};
    EXPECT_NEAR(r.apply(a).norm(), a.norm(), 1e-12);
    EXPECT_NEAR(r.apply(a).dot(r.apply(b)), a.dot(b), 1e-10);
  }
}

TEST(Transform, QuarterTurnAboutZ) {
  const Mat3 r = Mat3::axis_angle({0, 0, 1}, std::numbers::pi / 2);
  const Vec3 v = r.apply({1, 0, 0});
  EXPECT_NEAR(v.x, 0.0, 1e-15);
  EXPECT_NEAR(v.y, 1.0, 1e-15);
  EXPECT_NEAR(v.z, 0.0, 1e-15);
}

TEST(Transform, ComposeMatchesSequentialApplication) {
  const RigidTransform a{Mat3::axis_angle({0, 1, 0}, 0.4), {1, 2, 3}};
  const RigidTransform b{Mat3::axis_angle({1, 0, 0}, -0.9), {-2, 0, 5}};
  const Vec3 p{0.3, -1.2, 2.2};
  const Vec3 via_compose = (a * b).apply(p);
  const Vec3 via_seq = a.apply(b.apply(p));
  EXPECT_NEAR((via_compose - via_seq).norm(), 0.0, 1e-12);
}

// ---- quadrature ------------------------------------------------------------

namespace {

/// Exact integral of x^p y^q over the unit right triangle
/// {(x,y): x,y >= 0, x+y <= 1}: p! q! / (p+q+2)!.
double exact_monomial_integral(int p, int q) {
  auto fact = [](int n) {
    double f = 1;
    for (int i = 2; i <= n; ++i) f *= i;
    return f;
  };
  return fact(p) * fact(q) / fact(p + q + 2);
}

/// Integrate x^p y^q with a Dunavant rule mapped to the unit triangle with
/// vertices (0,0), (1,0), (0,1).
double quad_monomial(int degree, int p, int q) {
  double sum = 0;
  for (const auto& pt : octgb::geom::dunavant_rule(degree)) {
    const double x = pt.b;  // v1 = (1,0)
    const double y = pt.c;  // v2 = (0,1)
    sum += pt.w * std::pow(x, p) * std::pow(y, q);
  }
  return sum * 0.5;  // triangle area
}

}  // namespace

/// Property: rule of degree d integrates every monomial of total degree
/// <= d exactly.
class DunavantExactness : public ::testing::TestWithParam<int> {};

TEST_P(DunavantExactness, IntegratesMonomialsUpToDegree) {
  const int degree = GetParam();
  // The published 15-digit point coordinates limit the degree-8 rule to
  // ~1e-11 absolute accuracy; lower degrees are exact to rounding.
  const double tol = degree >= 8 ? 1e-10 : 1e-13;
  for (int p = 0; p <= degree; ++p) {
    for (int q = 0; p + q <= degree; ++q) {
      EXPECT_NEAR(quad_monomial(degree, p, q),
                  exact_monomial_integral(p, q), tol)
          << "degree=" << degree << " monomial x^" << p << " y^" << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDegrees, DunavantExactness,
                         ::testing::Range(1, 9));

TEST(Dunavant, WeightsSumToOne) {
  for (int d = 1; d <= 8; ++d) {
    double sum = 0;
    for (const auto& pt : octgb::geom::dunavant_rule(d)) sum += pt.w;
    EXPECT_NEAR(sum, 1.0, 1e-13) << "degree " << d;
  }
}

TEST(Dunavant, BarycentricCoordinatesSumToOne) {
  for (int d = 1; d <= 8; ++d) {
    for (const auto& pt : octgb::geom::dunavant_rule(d)) {
      EXPECT_NEAR(pt.a + pt.b + pt.c, 1.0, 1e-13);
    }
  }
}

TEST(Dunavant, DegreeIsClampedToValidRange) {
  EXPECT_EQ(octgb::geom::dunavant_rule(0).size(),
            octgb::geom::dunavant_rule(1).size());
  EXPECT_EQ(octgb::geom::dunavant_rule(99).size(),
            octgb::geom::dunavant_rule(8).size());
}

TEST(Dunavant, PointCounts) {
  const std::size_t expected[] = {1, 3, 4, 6, 7, 12, 13, 16};
  for (int d = 1; d <= 8; ++d)
    EXPECT_EQ(octgb::geom::dunavant_rule(d).size(), expected[d - 1])
        << "degree " << d;
}

TEST(Quadrature, ApplyRuleWeightsSumToArea) {
  const Vec3 v0{0, 0, 0}, v1{2, 0, 0}, v2{0, 3, 0};
  std::vector<octgb::geom::SurfacePoint> pts;
  octgb::geom::apply_rule_to_triangle(octgb::geom::dunavant_rule(4), v0, v1,
                                      v2, {0, 0, 1}, pts);
  double w = 0;
  for (const auto& p : pts) w += p.weight;
  EXPECT_NEAR(w, 3.0, 1e-12);  // area = 0.5*2*3
  for (const auto& p : pts) EXPECT_EQ(p.normal, (Vec3{0, 0, 1}));
}

TEST(Quadrature, InterpolatedNormalsAreUnit) {
  const Vec3 v0{1, 0, 0}, v1{0, 1, 0}, v2{0, 0, 1};
  std::vector<octgb::geom::SurfacePoint> pts;
  octgb::geom::apply_rule_to_triangle(octgb::geom::dunavant_rule(3), v0, v1,
                                      v2, v0, v1, v2, pts);
  for (const auto& p : pts) EXPECT_NEAR(p.normal.norm(), 1.0, 1e-12);
}

// ---- meshes ----------------------------------------------------------------

TEST(Mesh, IcosahedronShape) {
  const auto m = octgb::geom::icosahedron();
  EXPECT_EQ(m.vertices.size(), 12u);
  EXPECT_EQ(m.num_triangles(), 20u);
  for (const auto& v : m.vertices) EXPECT_NEAR(v.norm(), 1.0, 1e-12);
  EXPECT_EQ(octgb::test_support::euler_characteristic(m), 2);
}

class IcosphereLevels : public ::testing::TestWithParam<int> {};

TEST_P(IcosphereLevels, TopologyAndGeometry) {
  const int level = GetParam();
  const auto& m = octgb::geom::icosphere(level);
  EXPECT_EQ(m.num_triangles(), 20u << (2 * level));
  EXPECT_EQ(octgb::test_support::euler_characteristic(m), 2);
  for (const auto& v : m.vertices) EXPECT_NEAR(v.norm(), 1.0, 1e-12);
  // Flat-facet area approaches 4π from below.
  EXPECT_LT(m.area(), 4.0 * std::numbers::pi);
  const double deficit = 1.0 - m.area() / (4.0 * std::numbers::pi);
  EXPECT_LT(deficit, 0.25 / (1 << level));
}

INSTANTIATE_TEST_SUITE_P(Levels, IcosphereLevels, ::testing::Range(0, 5));

TEST(Mesh, IcosphereCacheReturnsSameObject) {
  const auto& a = octgb::geom::icosphere(2);
  const auto& b = octgb::geom::icosphere(2);
  EXPECT_EQ(&a, &b);
}
