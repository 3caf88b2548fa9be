#include "octgb/geom/mesh.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "octgb/geom/quadrature.hpp"
#include "octgb/util/check.hpp"

namespace octgb::geom {

double TriMesh::area() const {
  double a = 0.0;
  for (const auto& t : triangles)
    a += triangle_area(vertices[t.v0], vertices[t.v1], vertices[t.v2]);
  return a;
}

TriMesh icosahedron() {
  const double phi = (1.0 + std::sqrt(5.0)) / 2.0;
  TriMesh m;
  const double verts[12][3] = {
      {-1, phi, 0}, {1, phi, 0},   {-1, -phi, 0}, {1, -phi, 0},
      {0, -1, phi}, {0, 1, phi},   {0, -1, -phi}, {0, 1, -phi},
      {phi, 0, -1}, {phi, 0, 1},   {-phi, 0, -1}, {-phi, 0, 1}};
  for (const auto& v : verts)
    m.vertices.push_back(Vec3{v[0], v[1], v[2]}.normalized());
  const std::uint32_t faces[20][3] = {
      {0, 11, 5},  {0, 5, 1},   {0, 1, 7},   {0, 7, 10}, {0, 10, 11},
      {1, 5, 9},   {5, 11, 4},  {11, 10, 2}, {10, 7, 6}, {7, 1, 8},
      {3, 9, 4},   {3, 4, 2},   {3, 2, 6},   {3, 6, 8},  {3, 8, 9},
      {4, 9, 5},   {2, 4, 11},  {6, 2, 10},  {8, 6, 7},  {9, 8, 1}};
  for (const auto& f : faces) m.triangles.push_back({f[0], f[1], f[2]});
  return m;
}

namespace {

TriMesh subdivide(const TriMesh& in) {
  TriMesh out;
  out.vertices = in.vertices;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> midpoint;
  auto mid = [&](std::uint32_t a, std::uint32_t b) -> std::uint32_t {
    const auto key = std::minmax(a, b);
    auto it = midpoint.find(key);
    if (it != midpoint.end()) return it->second;
    const Vec3 p = ((out.vertices[a] + out.vertices[b]) * 0.5).normalized();
    const auto idx = static_cast<std::uint32_t>(out.vertices.size());
    out.vertices.push_back(p);
    midpoint.emplace(key, idx);
    return idx;
  };
  for (const auto& t : in.triangles) {
    const std::uint32_t a = mid(t.v0, t.v1);
    const std::uint32_t b = mid(t.v1, t.v2);
    const std::uint32_t c = mid(t.v2, t.v0);
    out.triangles.push_back({t.v0, a, c});
    out.triangles.push_back({t.v1, b, a});
    out.triangles.push_back({t.v2, c, b});
    out.triangles.push_back({a, b, c});
  }
  return out;
}

}  // namespace

const TriMesh& icosphere(int level) {
  OCTGB_CHECK_MSG(level >= 0 && level <= 7, "icosphere level out of range");
  static std::mutex mu;
  static std::map<int, TriMesh> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(level);
  if (it != cache.end()) return it->second;
  TriMesh m = icosahedron();
  for (int i = 0; i < level; ++i) m = subdivide(m);
  return cache.emplace(level, std::move(m)).first->second;
}

}  // namespace octgb::geom
