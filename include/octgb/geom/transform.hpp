#pragma once
/// \file transform.hpp
/// Rigid-body transforms (rotation + translation).
///
/// The paper notes that for docking scans the octree can be *moved/rotated*
/// by multiplying with transformation matrices instead of being rebuilt;
/// the docking_scan example exercises exactly this.

#include <array>
#include <cmath>

#include "octgb/geom/vec3.hpp"

namespace octgb::geom {

/// 3x3 rotation matrix stored row-major.
struct Mat3 {
  std::array<double, 9> m{1, 0, 0, 0, 1, 0, 0, 0, 1};

  static Mat3 identity() { return {}; }

  /// Rotation about an arbitrary unit axis by `angle` radians (Rodrigues).
  static Mat3 axis_angle(const Vec3& axis, double angle);

  /// Rotation from Z-Y-X Euler angles (yaw about z, pitch about y, roll
  /// about x) — convenient for scan grids.
  static Mat3 euler_zyx(double yaw, double pitch, double roll);

  Vec3 apply(const Vec3& v) const {
    return {m[0] * v.x + m[1] * v.y + m[2] * v.z,
            m[3] * v.x + m[4] * v.y + m[5] * v.z,
            m[6] * v.x + m[7] * v.y + m[8] * v.z};
  }

  Mat3 operator*(const Mat3& o) const;
};

/// Rigid transform p ↦ R p + t.
struct RigidTransform {
  Mat3 rotation;
  Vec3 translation;

  static RigidTransform identity() { return {}; }
  static RigidTransform translate(const Vec3& t) { return {Mat3{}, t}; }
  static RigidTransform rotate(const Mat3& r) { return {r, {}}; }

  Vec3 apply(const Vec3& p) const {
    return rotation.apply(p) + translation;
  }
  /// Transform a direction (no translation) — used for surface normals.
  Vec3 apply_dir(const Vec3& d) const { return rotation.apply(d); }

  /// Composition: (a * b).apply(p) == a.apply(b.apply(p)).
  RigidTransform operator*(const RigidTransform& o) const {
    return {rotation * o.rotation, rotation.apply(o.translation) + translation};
  }
};

}  // namespace octgb::geom
