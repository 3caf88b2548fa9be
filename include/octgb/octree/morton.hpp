#pragma once
/// \file morton.hpp
/// 64-bit 3D Morton (Z-curve) location codes and the quantization grid the
/// linear-octree builder is defined over.
///
/// A Morton key interleaves the bits of the three quantized coordinates so
/// that the 3-bit digit at each level of the key *is* the octant index the
/// recursive partitioner would have chosen at that level: digit =
/// (x-bit) | (y-bit << 1) | (z-bit << 2), matching the legacy builder's
/// octant numbering (x is the least significant axis). Sorting points by
/// key therefore orders them exactly along the depth-first traversal of the
/// octree, which is what makes construction a sort and the node order the
/// SoA plane order (DESIGN.md §2.9).
///
/// At the maximum 21 bits per axis the three coordinates fill 63 of the 64
/// key bits; the top bit is always zero, so keys order correctly as plain
/// unsigned integers.

#include <cstdint>
#include <span>

#include "octgb/geom/aabb.hpp"
#include "octgb/geom/vec3.hpp"

namespace octgb::octree {

/// Maximum quantization bits per axis (3 × 21 = 63 key bits).
inline constexpr int kMortonMaxBits = 21;

/// Spread the low 21 bits of `v` so bit i lands at bit 3·i.
constexpr std::uint64_t morton_spread(std::uint64_t v) {
  v &= 0x1fffffULL;
  v = (v | (v << 32)) & 0x001f00000000ffffULL;
  v = (v | (v << 16)) & 0x001f0000ff0000ffULL;
  v = (v | (v << 8)) & 0x100f00f00f00f00fULL;
  v = (v | (v << 4)) & 0x10c30c30c30c30c3ULL;
  v = (v | (v << 2)) & 0x1249249249249249ULL;
  return v;
}

/// Interleave three ≤21-bit coordinates into one key (x least significant
/// within each 3-bit digit, matching the legacy octant numbering).
constexpr std::uint64_t morton_encode(std::uint32_t x, std::uint32_t y,
                                      std::uint32_t z) {
  return morton_spread(x) | (morton_spread(y) << 1) | (morton_spread(z) << 2);
}

/// The quantization grid a Morton tree was built over: a cubical box of
/// 2^bits cells per axis anchored so its cell boundaries coincide with the
/// legacy builder's recursive octant planes (origin = cube center − half,
/// cell = side / 2^bits). An octree uses it only while it builds; the
/// tree keeps neither the grid nor the keys.
struct MortonGrid {
  geom::Vec3 origin;          ///< cube corner (minimum coordinate)
  double cell = 0.0;          ///< cell side length; 0 means "no grid"
  std::uint8_t bits = 0;      ///< quantization bits per axis (1..21)

  friend bool operator==(const MortonGrid&, const MortonGrid&) = default;

  /// Cells per axis.
  std::uint32_t side() const { return 1u << bits; }

  /// Grid covering the cubified bounding box of `pts` (the legacy root
  /// cell) at `bits` bits per axis. Degenerate inputs get the same 1e-9
  /// minimum half-extent the legacy builder uses.
  static MortonGrid of(std::span<const geom::Vec3> pts, int bits);

  /// Quantize one coordinate (clamped to the grid). Scales by the
  /// reciprocal rather than dividing: `1.0 / cell` is loop-invariant, so
  /// the batch key-generation loops hoist it and pay one multiply per
  /// coordinate instead of a ~20-cycle divide (keygen was the single
  /// hottest phase of the Morton build before this change). Clamps before
  /// the integer conversion, so NaN (→ 0) and ±inf stay defined; the
  /// builders reject such points after their key pass.
  std::uint32_t quantize(double v, double o) const {
    const double t = (v - o) * (1.0 / cell);
    if (!(t > 0.0)) return 0;
    const std::uint32_t max = side() - 1;
    return t >= static_cast<double>(max) ? max : static_cast<std::uint32_t>(t);
  }

  /// Morton key of a point (coordinates quantized with clamping).
  std::uint64_t key(const geom::Vec3& p) const {
    return morton_encode(quantize(p.x, origin.x), quantize(p.y, origin.y),
                         quantize(p.z, origin.z));
  }
};

inline MortonGrid MortonGrid::of(std::span<const geom::Vec3> pts, int bits) {
  const geom::Aabb box = geom::Aabb::of(pts).cubified();
  const geom::Vec3 c = box.center();
  const double half = pts.empty()
                          ? 1e-9
                          : (box.max_extent() * 0.5 < 1e-9
                                 ? 1e-9
                                 : box.max_extent() * 0.5);
  MortonGrid g;
  g.origin = {c.x - half, c.y - half, c.z - half};
  g.bits = static_cast<std::uint8_t>(bits);
  g.cell = (2.0 * half) / static_cast<double>(g.side());
  return g;
}

}  // namespace octgb::octree
