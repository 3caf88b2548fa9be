#pragma once
/// \file morton_oracle.hpp
/// Inverses of the Morton key encoding, kept as test oracles: the
/// builders only ever encode, so decoding and digit extraction live here
/// to check that `morton_encode` and `MortonGrid::key` are what the
/// octree construction assumes.

#include <cstdint>

#include "octgb/geom/vec3.hpp"
#include "octgb/octree/morton.hpp"

namespace octgb::test_support {

/// Inverse of morton_spread: gather every third bit back into the low 21.
constexpr std::uint32_t morton_compact(std::uint64_t v) {
  v &= 0x1249249249249249ULL;
  v = (v | (v >> 2)) & 0x10c30c30c30c30c3ULL;
  v = (v | (v >> 4)) & 0x100f00f00f00f00fULL;
  v = (v | (v >> 8)) & 0x001f0000ff0000ffULL;
  v = (v | (v >> 16)) & 0x001f00000000ffffULL;
  v = (v | (v >> 32)) & 0x00000000001fffffULL;
  return static_cast<std::uint32_t>(v);
}

/// De-interleaved coordinates of a Morton key.
struct MortonCoords {
  std::uint32_t x = 0, y = 0, z = 0;
  friend bool operator==(const MortonCoords&, const MortonCoords&) = default;
};

/// Inverse of morton_encode.
constexpr MortonCoords morton_decode(std::uint64_t key) {
  return {morton_compact(key), morton_compact(key >> 1),
          morton_compact(key >> 2)};
}

/// The 3-bit octant digit of `key` at tree `level` (level 0 = the root
/// split) for a grid of `bits` levels. Digits run from the most significant
/// triple down, so lexicographic key order is depth-first octant order.
constexpr unsigned morton_digit(std::uint64_t key, int level, int bits) {
  return static_cast<unsigned>((key >> (3 * (bits - 1 - level))) & 7u);
}

/// Center of the grid cell addressed by a key (a lossy inverse of
/// MortonGrid::key).
inline geom::Vec3 cell_center(const octree::MortonGrid& g, std::uint64_t k) {
  const MortonCoords c = morton_decode(k);
  return {g.origin.x + (c.x + 0.5) * g.cell, g.origin.y + (c.y + 0.5) * g.cell,
          g.origin.z + (c.z + 0.5) * g.cell};
}

}  // namespace octgb::test_support
