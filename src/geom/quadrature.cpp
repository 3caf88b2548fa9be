#include "octgb/geom/quadrature.hpp"

#include <array>
#include <cmath>

#include "octgb/util/check.hpp"

namespace octgb::geom {
namespace {

// Orbit generators for the symmetric rules. Coordinates follow Dunavant's
// tabulation: orbit1 is the centroid; orbit3(a) is (1-2a, a, a) plus cyclic
// permutations; orbit6(a, b) is (a, b, 1-a-b) plus all six permutations.
void orbit1(double w, std::vector<TriQuadPoint>& out) {
  out.push_back({1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, w});
}

void orbit3(double a, double w, std::vector<TriQuadPoint>& out) {
  const double r = 1.0 - 2.0 * a;
  out.push_back({r, a, a, w});
  out.push_back({a, r, a, w});
  out.push_back({a, a, r, w});
}

void orbit6(double a, double b, double w, std::vector<TriQuadPoint>& out) {
  const double c = 1.0 - a - b;
  out.push_back({a, b, c, w});
  out.push_back({a, c, b, w});
  out.push_back({b, a, c, w});
  out.push_back({b, c, a, w});
  out.push_back({c, a, b, w});
  out.push_back({c, b, a, w});
}

std::vector<TriQuadPoint> make_rule(int degree) {
  std::vector<TriQuadPoint> r;
  switch (degree) {
    case 1:
      orbit1(1.0, r);
      break;
    case 2:
      orbit3(1.0 / 6.0, 1.0 / 3.0, r);
      break;
    case 3:
      orbit1(-27.0 / 48.0, r);
      orbit3(0.2, 25.0 / 48.0, r);
      break;
    case 4:
      orbit3(0.445948490915965, 0.223381589678011, r);
      orbit3(0.091576213509771, 0.109951743655322, r);
      break;
    case 5:
      orbit1(0.225, r);
      orbit3(0.470142064105115, 0.132394152788506, r);
      orbit3(0.101286507323456, 0.125939180544827, r);
      break;
    case 6:
      orbit3(0.249286745170910, 0.116786275726379, r);
      orbit3(0.063089014491502, 0.050844906370207, r);
      orbit6(0.310352451033785, 0.053145049844816, 0.082851075618374, r);
      break;
    case 7:
      orbit1(-0.149570044467670, r);
      orbit3(0.260345966079038, 0.175615257433204, r);
      orbit3(0.065130102902216, 0.053347235608839, r);
      orbit6(0.312865496004875, 0.048690315425316, 0.077113760890257, r);
      break;
    case 8:
      orbit1(0.144315607677787, r);
      orbit3(0.459292588292723, 0.095091634413246, r);
      orbit3(0.170569307751760, 0.103217370534718, r);
      orbit3(0.050547228317031, 0.032458497623198, r);
      orbit6(0.263112829634638, 0.008394777409958, 0.027230314174435, r);
      break;
    default:
      OCTGB_CHECK_MSG(false, "unreachable degree " << degree);
  }
  // Published tables carry ~1e-10 rounding in the last digits; renormalize
  // so the weights sum to exactly 1 (constant functions integrate exactly).
  double sum = 0.0;
  for (const TriQuadPoint& q : r) sum += q.w;
  for (TriQuadPoint& q : r) q.w /= sum;
  return r;
}

// Rules are immutable static data built on first use.
const std::array<std::vector<TriQuadPoint>, 8>& all_rules() {
  static const std::array<std::vector<TriQuadPoint>, 8> rules = [] {
    std::array<std::vector<TriQuadPoint>, 8> a;
    for (int d = 1; d <= 8; ++d) a[d - 1] = make_rule(d);
    return a;
  }();
  return rules;
}

}  // namespace

std::span<const TriQuadPoint> dunavant_rule(int degree) {
  if (degree < 1) degree = 1;
  if (degree > 8) degree = 8;
  return all_rules()[degree - 1];
}

double triangle_area(const Vec3& v0, const Vec3& v1, const Vec3& v2) {
  return 0.5 * (v1 - v0).cross(v2 - v0).norm();
}

void apply_rule_to_triangle(std::span<const TriQuadPoint> rule, const Vec3& v0,
                            const Vec3& v1, const Vec3& v2, const Vec3& normal,
                            std::vector<SurfacePoint>& out) {
  const double area = triangle_area(v0, v1, v2);
  for (const TriQuadPoint& q : rule) {
    out.push_back({v0 * q.a + v1 * q.b + v2 * q.c, normal, q.w * area});
  }
}

void apply_rule_to_triangle(std::span<const TriQuadPoint> rule, const Vec3& v0,
                            const Vec3& v1, const Vec3& v2, const Vec3& n0,
                            const Vec3& n1, const Vec3& n2,
                            std::vector<SurfacePoint>& out) {
  const double area = triangle_area(v0, v1, v2);
  for (const TriQuadPoint& q : rule) {
    const Vec3 n = (n0 * q.a + n1 * q.b + n2 * q.c).normalized();
    out.push_back({v0 * q.a + v1 * q.b + v2 * q.c, n, q.w * area});
  }
}

}  // namespace octgb::geom
