#pragma once
/// \file dynamic.hpp
/// Dynamic octree maintenance for flexible molecules (the paper's ref [8]:
/// "Space-efficient maintenance of nonbonded lists for flexible molecules
/// using dynamic octrees", and §II's point that octrees are
/// update-efficient where nblists are not).
///
/// During an MD trajectory atoms move a little every step. Rather than
/// rebuilding the octree, a *refit* keeps the tree topology (the
/// point→leaf assignment) and recomputes node centroids and enclosing
/// radii bottom-up in O(n). The far-field admissibility tests stay
/// correct because they only consult centroids and radii. When the
/// accumulated drift inflates leaves past a fixed quality threshold, the
/// tree is rebuilt from scratch. Refit and rebuild are the only two ways a
/// tree moves.

#include <vector>

#include "octgb/octree/octree.hpp"

namespace octgb::octree {

/// The refit-vs-rebuild quality policy. Its owner refits the tree in
/// place with Octree::refit() (core::ScoringSession does so for the
/// engine's AtomsTree/QPointsTree), asks should_rebuild(), and after a
/// rebuild calls rebase(). The threshold is two constants, not a knob.
///
/// The monitor snapshots each leaf's enclosing radius at (re)build time
/// ("rebase"). After refits, a leaf whose radius has inflated past
/// kRebuildRadiusFactor × max(radius_at_rebase, kRebuildRadiusSlack)
/// signals that the topology has degraded enough to warrant a rebuild.
/// Refit tolerance contract: as long as should_rebuild() is honoured, the
/// far-field admissibility tests stay sound (they only consult the
/// refreshed centroids/radii), so energies evaluated on a refitted tree
/// match a from-scratch rebuild on the same coordinates within the
/// engine's approximation tolerance — ≤ 1 % relative Epol error at the
/// default ε, the bound the extension tests assert.
class RefitMonitor {
 public:
  /// Rebuild when any leaf's radius exceeds
  /// kRebuildRadiusFactor × max(its radius at rebase time, slack).
  static constexpr double kRebuildRadiusFactor = 1.5;
  static constexpr double kRebuildRadiusSlack = 1.0;  ///< Å

  RefitMonitor() = default;
  /// Snapshot `tree`'s current radii as the rebase state.
  explicit RefitMonitor(const Octree& tree);

  /// Re-snapshot after a rebuild (or any topology change).
  void rebase(const Octree& tree);

  /// True when any leaf's inflation exceeds the rebuild threshold.
  bool should_rebuild(const Octree& tree) const;

 private:
  std::vector<double> base_radius_;  ///< per-node radius at rebase time
};

}  // namespace octgb::octree
