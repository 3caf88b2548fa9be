#pragma once
/// \file aabb.hpp
/// Axis-aligned bounding box — the octree's spatial primitive.

#include <algorithm>
#include <limits>
#include <span>

#include "octgb/geom/vec3.hpp"

namespace octgb::geom {

/// Axis-aligned box. Default-constructed boxes are "empty" (inverted) and
/// grow correctly under expand().
struct Aabb {
  Vec3 lo{+std::numeric_limits<double>::infinity(),
          +std::numeric_limits<double>::infinity(),
          +std::numeric_limits<double>::infinity()};
  Vec3 hi{-std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity()};

  bool empty() const { return lo.x > hi.x; }

  void expand(const Vec3& p) {
    lo.x = std::min(lo.x, p.x);
    lo.y = std::min(lo.y, p.y);
    lo.z = std::min(lo.z, p.z);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
    hi.z = std::max(hi.z, p.z);
  }
  void expand(const Aabb& b) {
    if (b.empty()) return;
    expand(b.lo);
    expand(b.hi);
  }

  Vec3 center() const { return (lo + hi) * 0.5; }
  Vec3 extent() const { return hi - lo; }

  /// Longest side length; 0 for an empty box.
  double max_extent() const {
    if (empty()) return 0.0;
    const Vec3 e = extent();
    return std::max({e.x, e.y, e.z});
  }

  /// Half-diagonal: radius of the bounding sphere of the box.
  double radius() const { return empty() ? 0.0 : extent().norm() * 0.5; }

  bool contains(const Vec3& p) const {
    return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y &&
           p.z >= lo.z && p.z <= hi.z;
  }

  /// Bounding box of a point set.
  static Aabb of(std::span<const Vec3> pts) {
    Aabb b;
    for (const Vec3& p : pts) b.expand(p);
    return b;
  }

  /// Smallest cube centered like this box that contains it (octrees use
  /// cubical root cells so children are cubes too).
  Aabb cubified() const {
    if (empty()) return *this;
    const Vec3 c = center();
    const double h = max_extent() * 0.5;
    return {{c.x - h, c.y - h, c.z - h}, {c.x + h, c.y + h, c.z + h}};
  }
};

}  // namespace octgb::geom
