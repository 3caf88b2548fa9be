#pragma once
/// \file mesh_oracle.hpp
/// Topology check for the icosphere templates, kept as a test oracle.

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>

#include "octgb/geom/mesh.hpp"

namespace octgb::test_support {

/// Euler characteristic V - E + F (2 for a closed sphere-like mesh).
inline long euler_characteristic(const geom::TriMesh& mesh) {
  std::set<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (const auto& t : mesh.triangles) {
    edges.insert(std::minmax(t.v0, t.v1));
    edges.insert(std::minmax(t.v1, t.v2));
    edges.insert(std::minmax(t.v2, t.v0));
  }
  return static_cast<long>(mesh.vertices.size()) -
         static_cast<long>(edges.size()) +
         static_cast<long>(mesh.triangles.size());
}

}  // namespace octgb::test_support
