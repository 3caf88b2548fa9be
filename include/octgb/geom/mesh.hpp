#pragma once
/// \file mesh.hpp
/// Indexed triangle mesh + icosphere generation.
///
/// The molecular surface module triangulates each atom's exposed sphere with
/// a subdivided icosahedron; this file provides the (unit-sphere) template
/// meshes, cached per subdivision level.

#include <cstdint>
#include <vector>

#include "octgb/geom/vec3.hpp"

namespace octgb::geom {

/// Indexed triangle mesh. Vertices of icosphere meshes lie on the unit
/// sphere so a vertex doubles as its own outward normal.
struct TriMesh {
  std::vector<Vec3> vertices;
  struct Tri {
    std::uint32_t v0, v1, v2;
  };
  std::vector<Tri> triangles;

  std::size_t num_triangles() const { return triangles.size(); }

  /// Total surface area of the mesh.
  double area() const;
};

/// Unit icosahedron mesh (12 vertices, 20 faces).
TriMesh icosahedron();

/// Unit icosphere: icosahedron subdivided `level` times (4^level × 20
/// faces), vertices re-projected to the unit sphere. Results are cached;
/// the returned reference is valid for the program's lifetime.
const TriMesh& icosphere(int level);

}  // namespace octgb::geom
