#pragma once
/// \file sphere_surface.hpp
/// The sampled surface of one isolated sphere, whose area and Born
/// integral have closed forms the surface tests check against.

#include "octgb/geom/vec3.hpp"
#include "octgb/mol/molecule.hpp"
#include "octgb/surface/surface.hpp"

namespace octgb::test_support {

/// build_surface of a one-atom molecule centred at `center`.
inline surface::Surface build_sphere_surface(
    const geom::Vec3& center, double radius,
    const surface::SurfaceParams& params = {}) {
  mol::Molecule m("sphere");
  mol::Atom a;
  a.pos = center;
  a.radius = radius;
  a.charge = 1.0;
  m.add_atom(a);
  return surface::build_surface(m, params);
}

}  // namespace octgb::test_support
