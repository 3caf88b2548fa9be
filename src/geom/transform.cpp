#include "octgb/geom/transform.hpp"

namespace octgb::geom {

Mat3 Mat3::axis_angle(const Vec3& axis, double angle) {
  const Vec3 u = axis.normalized();
  const double c = std::cos(angle), s = std::sin(angle), t = 1.0 - c;
  Mat3 r;
  r.m = {t * u.x * u.x + c,       t * u.x * u.y - s * u.z, t * u.x * u.z + s * u.y,
         t * u.x * u.y + s * u.z, t * u.y * u.y + c,       t * u.y * u.z - s * u.x,
         t * u.x * u.z - s * u.y, t * u.y * u.z + s * u.x, t * u.z * u.z + c};
  return r;
}

Mat3 Mat3::euler_zyx(double yaw, double pitch, double roll) {
  return axis_angle({0, 0, 1}, yaw) * axis_angle({0, 1, 0}, pitch) *
         axis_angle({1, 0, 0}, roll);
}

Mat3 Mat3::operator*(const Mat3& o) const {
  Mat3 r;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) {
      double s = 0.0;
      for (int k = 0; k < 3; ++k) s += m[i * 3 + k] * o.m[k * 3 + j];
      r.m[i * 3 + j] = s;
    }
  return r;
}

}  // namespace octgb::geom
