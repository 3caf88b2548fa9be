#pragma once
/// \file quadrature.hpp
/// Symmetric Gaussian quadrature rules for triangles (Dunavant 1985),
/// degrees 1–8 — the rules the paper cites ([11]) for sampling integration
/// points in each surface triangle's interior.
///
/// Points are barycentric; weights are normalized to sum to 1, so applying a
/// rule to a 3D triangle multiplies each weight by the triangle area.

#include <span>
#include <vector>

#include "octgb/geom/vec3.hpp"

namespace octgb::geom {

/// One quadrature point in barycentric coordinates with normalized weight.
struct TriQuadPoint {
  double a, b, c;  ///< barycentric coordinates (a + b + c = 1)
  double w;        ///< weight; Σw = 1 over the rule
};

/// Return the Dunavant rule exact for polynomials up to `degree` (1..8).
/// Degrees outside the range are clamped. The returned span is static data.
std::span<const TriQuadPoint> dunavant_rule(int degree);

/// A quadrature point positioned on a concrete 3D triangle.
struct SurfacePoint {
  Vec3 position;
  Vec3 normal;    ///< unit outward normal
  double weight;  ///< quadrature weight × triangle area (units of area)
};

/// Expand a rule onto the 3D triangle (v0,v1,v2), appending one SurfacePoint
/// per rule point to `out`. `normal` must be the unit outward normal of the
/// triangle (flat-facet normal, or a per-point normal supplied by the
/// caller through the overload below).
void apply_rule_to_triangle(std::span<const TriQuadPoint> rule, const Vec3& v0,
                            const Vec3& v1, const Vec3& v2, const Vec3& normal,
                            std::vector<SurfacePoint>& out);

/// Overload with per-vertex normals, interpolated (then renormalized) at
/// each quadrature point — appropriate for curved (sphere-patch) triangles.
void apply_rule_to_triangle(std::span<const TriQuadPoint> rule, const Vec3& v0,
                            const Vec3& v1, const Vec3& v2, const Vec3& n0,
                            const Vec3& n1, const Vec3& n2,
                            std::vector<SurfacePoint>& out);

/// Area of a 3D triangle.
double triangle_area(const Vec3& v0, const Vec3& v1, const Vec3& v2);

}  // namespace octgb::geom
