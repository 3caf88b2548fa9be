#include "morton_stream.hpp"

#include <sstream>

#include "octgb/octree/morton.hpp"
#include "octgb/octree/serialize.hpp"

namespace octgb::test_support {

MortonState morton_state(const octree::Octree& tree) {
  std::vector<geom::Vec3> pts(tree.num_points());
  for (std::uint32_t i = 0; i < pts.size(); ++i) pts[i] = tree.point(i);
  const auto grid =
      octree::MortonGrid::of(pts, octree::BuildParams{}.grid_bits);
  MortonState s;
  s.keys.reserve(pts.size());
  for (const geom::Vec3& p : pts) s.keys.push_back(grid.key(p));
  s.grid = {grid.origin.x, grid.origin.y, grid.origin.z, grid.cell,
            static_cast<double>(grid.bits)};
  return s;
}

std::string v2_stream(const octree::Octree& tree, const MortonState& state) {
  std::ostringstream out;
  octree::write_octree(tree, out);
  std::string bytes = out.str();
  // Two empty sections close the stream: a 24-byte header each (8-byte
  // tag, element size, reserved, count).
  bytes.resize(bytes.size() - 2 * 24);
  std::ostringstream tail;
  octree::write_u64_section(tail, "mkey", state.keys);
  octree::write_f64_section(tail, "mgrd", state.grid);
  return bytes + tail.str();
}

}  // namespace octgb::test_support
