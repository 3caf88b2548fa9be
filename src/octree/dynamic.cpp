#include "octgb/octree/dynamic.hpp"

#include <algorithm>
#include <cmath>

#include "octgb/util/check.hpp"

namespace octgb::octree {

RefitMonitor::RefitMonitor(const Octree& tree) { rebase(tree); }

void RefitMonitor::rebase(const Octree& tree) {
  base_radius_.resize(tree.nodes().size());
  for (std::size_t id = 0; id < tree.nodes().size(); ++id)
    base_radius_[id] = tree.node(id).radius;
}

double RefitMonitor::worst_leaf_inflation(const Octree& tree) const {
  OCTGB_CHECK_MSG(base_radius_.size() == tree.nodes().size(),
                  "monitor not rebased after a topology change");
  double worst = 0.0;
  for (std::uint32_t id : tree.leaf_ids()) {
    const double base = std::max(base_radius_[id], kRebuildRadiusSlack);
    worst = std::max(worst, tree.node(id).radius / base);
  }
  return worst;
}

bool RefitMonitor::should_rebuild(const Octree& tree) const {
  OCTGB_CHECK_MSG(base_radius_.size() == tree.nodes().size(),
                  "monitor not rebased after a topology change");
  for (std::uint32_t id : tree.leaf_ids()) {
    const double limit =
        kRebuildRadiusFactor * std::max(base_radius_[id], kRebuildRadiusSlack);
    if (tree.node(id).radius > limit) return true;
  }
  return false;
}

}  // namespace octgb::octree
