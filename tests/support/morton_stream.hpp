#pragma once
/// \file morton_stream.hpp
/// Serialize-v2 streams with non-empty Morton sections, as writers emitted
/// them while trees kept their sorted keys and grid. write_octree now
/// writes both sections empty, so the reader's checks on non-empty ones
/// (shape, finiteness, count, key order) are exercised through these
/// streams. They are assembled from the public section writers and
/// MortonGrid::of / MortonGrid::key.

#include <cstdint>
#include <string>
#include <vector>

#include "octgb/octree/octree.hpp"

namespace octgb::test_support {

/// The Morton state an older writer stored for a tree.
struct MortonState {
  std::vector<std::uint64_t> keys;  ///< "mkey": sorted keys, tree order
  std::vector<double> grid;         ///< "mgrd": origin x, y, z, cell, bits
};

/// The keys and grid of `tree`, which must come straight from
/// Octree::build, whose grid has kMortonMaxBits bits per axis: the grid is
/// the cubified bounding box of its points, and each key is its
/// tree-order point's cell.
MortonState morton_state(const octree::Octree& tree);

/// write_octree's stream for `tree` with its two empty v2 sections
/// replaced by `state` (which tests may corrupt first).
std::string v2_stream(const octree::Octree& tree, const MortonState& state);

}  // namespace octgb::test_support
