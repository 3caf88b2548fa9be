#pragma once
/// \file legacy_octree.hpp
/// The pre-Morton recursive octree partitioner, kept as a test reference:
/// octree_equiv_test checks that the Morton pipeline yields the same tree.

#include <span>

#include "octgb/geom/vec3.hpp"
#include "octgb/octree/octree.hpp"

namespace octgb::test_support {

/// Recursively partition `points` into octants of their cubified bounding
/// box, emitting nodes parents-before-children with each parent's
/// children contiguous, in ascending octant order. The tree is assembled
/// through Octree::from_parts, and a refit at the input positions sets
/// every node's exact centroid and radius.
octree::Octree build_legacy(std::span<const geom::Vec3> points,
                            const octree::BuildParams& params = {});

}  // namespace octgb::test_support
