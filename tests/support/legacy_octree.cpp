#include "legacy_octree.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "octgb/geom/aabb.hpp"

namespace octgb::test_support {

namespace {

using octree::Octree;

struct Cell {
  geom::Vec3 center;
  double half;
};

int octant_of(const geom::Vec3& p, const geom::Vec3& c) {
  return (p.x >= c.x ? 1 : 0) | (p.y >= c.y ? 2 : 0) | (p.z >= c.z ? 4 : 0);
}

}  // namespace

Octree build_legacy(std::span<const geom::Vec3> input,
                    const octree::BuildParams& params) {
  if (input.empty()) return Octree{};

  // Partition a local copy of the points together with the index map.
  std::vector<geom::Vec3> pts(input.begin(), input.end());
  std::vector<std::uint32_t> index(input.size());
  for (std::uint32_t i = 0; i < input.size(); ++i) index[i] = i;

  const geom::Aabb box = geom::Aabb::of(input).cubified();
  std::vector<Octree::Node> nodes(1);
  nodes[0].end = static_cast<std::uint32_t>(input.size());

  // Work item: node id already allocated; subdivide or leave it a leaf.
  struct WorkItem {
    std::uint32_t node_id;
    Cell cell;
  };
  std::vector<WorkItem> stack{
      {0, {box.center(), std::max(box.max_extent() * 0.5, 1e-9)}}};

  while (!stack.empty()) {
    const WorkItem item = stack.back();
    stack.pop_back();
    Octree::Node node = nodes[item.node_id];  // copy; nodes may grow below
    const std::uint32_t n = node.size();
    if (n <= params.max_leaf_size || node.depth >= octree::kMaxDepth)
      continue;

    // Stable counting sort of the node's range into its eight octants.
    std::array<std::uint32_t, 8> count{};
    for (std::uint32_t i = node.begin; i < node.end; ++i)
      ++count[octant_of(pts[i], item.cell.center)];
    std::array<std::uint32_t, 9> start;
    start[0] = node.begin;
    for (int o = 0; o < 8; ++o) start[o + 1] = start[o] + count[o];
    {
      std::vector<geom::Vec3> tmp_pts(n);
      std::vector<std::uint32_t> tmp_idx(n);
      std::array<std::uint32_t, 8> cursor;
      for (int o = 0; o < 8; ++o) cursor[o] = start[o] - node.begin;
      for (std::uint32_t i = node.begin; i < node.end; ++i) {
        const int o = octant_of(pts[i], item.cell.center);
        tmp_pts[cursor[o]] = pts[i];
        tmp_idx[cursor[o]] = index[i];
        ++cursor[o];
      }
      std::copy(tmp_pts.begin(), tmp_pts.end(), pts.begin() + node.begin);
      std::copy(tmp_idx.begin(), tmp_idx.end(), index.begin() + node.begin);
    }

    // Degenerate split (coincident points that one cell can no longer
    // separate): leave the node a leaf to guarantee progress.
    const int occupied =
        static_cast<int>(std::count_if(count.begin(), count.end(),
                                       [](std::uint32_t c) { return c > 0; }));
    if (occupied == 1 && item.cell.half < 1e-7) continue;

    // Allocate the non-empty children contiguously and push them with
    // their sub-cells.
    node.first_child = static_cast<std::uint32_t>(nodes.size());
    for (int o = 0; o < 8; ++o) {
      if (count[o] == 0) continue;
      Octree::Node child;
      child.begin = start[o];
      child.end = start[o + 1];
      child.depth = static_cast<std::uint8_t>(node.depth + 1);
      const double half = item.cell.half * 0.5;
      const Cell cell{item.cell.center + geom::Vec3{(o & 1) ? half : -half,
                                                    (o & 2) ? half : -half,
                                                    (o & 4) ? half : -half},
                      half};
      stack.push_back({static_cast<std::uint32_t>(nodes.size()), cell});
      nodes.push_back(child);
      ++node.child_count;
    }
    nodes[item.node_id] = node;
  }

  Octree t = Octree::from_parts(std::move(nodes), pts, std::move(index));
  t.refit(input);
  return t;
}

}  // namespace octgb::test_support
