#pragma once
/// \file surface.hpp
/// Molecular surface sampling: Gaussian quadrature points (position, unit
/// outward normal, weight) on the boundary of the union of atom spheres.
///
/// Each atom's sphere is triangulated with a subdivided icosahedron; a
/// Dunavant rule places quadrature points inside every triangle; points
/// buried inside any other atom are culled, leaving a quadrature of the
/// exposed surface. Weights are scaled so a complete isolated sphere
/// integrates to exactly 4πr² (polyhedral-deficit correction), which makes
/// the single-sphere Born radius exact — the calibration tests rely on it.
///
/// Sampling runs in parallel over fixed atom chunks — on the ambient
/// ws::Scheduler inside Scheduler::run, else on a private pool for large
/// inputs (ws::with_workers) — and the burial test checks each point
/// against a pair-exact blocker list gathered from a sorted Morton cell
/// list. The output is byte-identical at any worker count: points come in
/// atom, triangle, rule-point order, in exact-size planes (DESIGN.md
/// §2.13).

#include <cstddef>
#include <span>
#include <vector>

#include "octgb/geom/vec3.hpp"
#include "octgb/mol/molecule.hpp"

namespace octgb::surface {

/// Sampling resolution knobs.
struct SurfaceParams {
  int subdivision = 1;   ///< icosphere level: 20·4^level triangles per atom
  int quad_degree = 1;   ///< Dunavant rule degree (1..8) per triangle
  /// Shrink factor for the burial test: a point is buried if it lies
  /// inside another atom's sphere scaled by this factor. Slightly < 1
  /// keeps quadrature points of tangent spheres alive. Finite, ≥ 0.
  double burial_scale = 0.99;
};

/// The sampled surface (structure-of-arrays: the quadrature octree and the
/// integral kernels stream these).
struct Surface {
  std::vector<geom::Vec3> positions;
  std::vector<geom::Vec3> normals;   ///< unit outward
  std::vector<double> weights;       ///< area weights, Å²
  std::vector<std::uint32_t> owner_atom;  ///< atom each point came from

  std::size_t size() const { return positions.size(); }
  /// Total quadrature weight = estimated exposed surface area.
  double total_area() const;
  std::size_t footprint_bytes() const;
};

/// Sample the molecular surface of `mol`. Throws util::CheckError, naming
/// the atom and field, on a non-finite coordinate or radius or a negative
/// radius.
Surface build_surface(const mol::Molecule& mol,
                      const SurfaceParams& params = {});

}  // namespace octgb::surface
