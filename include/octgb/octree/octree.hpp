#pragma once
/// \file octree.hpp
/// Adaptive octree over 3D points, stored as a flat node array with
/// contiguous sibling blocks and a contiguous point range per node — the
/// cache-friendly layout the paper credits for part of its speedup.
///
/// Construction is a linear-octree pipeline over Morton location codes
/// (DESIGN.md §2.9): quantize to a 2^21 grid (kMortonMaxBits bits per
/// axis), sort (key, id) pairs (in parallel under a ws::Scheduler), derive
/// nodes from longest-common-prefix runs of the sorted keys, and emit them
/// in the same parents-before-children order the legacy recursive
/// partitioner used.
/// The sorted point order doubles as the SoA leaf-plane order: the tree
/// owns its coordinate planes (soa_x/y/z), and they are the only copy of
/// the coordinates it keeps — point() assembles one point from them. The
/// legacy recursive partitioner survives only in the tests
/// (tests/support/legacy_octree.hpp), assembled through from_parts(), as
/// the reference the build-equivalence differential compares against.
///
/// The same structure stores both the atoms octree T_A and the
/// quadrature-points octree T_Q; per-point payloads (charges, Born radii,
/// weighted normals) live in external tree-order arrays (core/trees.hpp).

#include <cstdint>
#include <span>
#include <vector>

#include "octgb/geom/aabb.hpp"
#include "octgb/geom/vec3.hpp"
#include "octgb/perf/counters.hpp"

namespace octgb::octree {

/// Hard depth cap of every octree (degenerate inputs). A Morton build
/// quantizes to kMortonMaxBits bits per axis, so its keys run out of
/// digits at depth 21 first.
inline constexpr int kMaxDepth = 24;

/// Build-time knobs. Every field shapes tree topology, so svc/digest.hpp
/// must pin all of them in the artifact-cache key. The grid resolution
/// (kMortonMaxBits) and the depth cap (kMaxDepth) are constants.
struct BuildParams {
  std::uint32_t max_leaf_size = 32;  ///< split nodes larger than this
};

/// Flat, immutable octree.
class Octree {
 public:
  static constexpr std::uint32_t kNoChild = 0xffffffffu;

  /// One node. Children (when present) are contiguous:
  /// [first_child, first_child + child_count). The node's points are the
  /// contiguous range [begin, end) of the permuted point order.
  struct Node {
    geom::Vec3 centroid;        ///< geometric center of the points under it
    double radius = 0.0;        ///< exact radius of the smallest centroid-
                                ///< centered ball enclosing all points under
                                ///< it (see DESIGN.md §2.9)
    std::uint32_t begin = 0;    ///< first point (tree order)
    std::uint32_t end = 0;      ///< one past last point (tree order)
    std::uint32_t first_child = kNoChild;
    std::uint8_t child_count = 0;
    std::uint8_t depth = 0;

    bool is_leaf() const { return first_child == kNoChild; }
    std::uint32_t size() const { return end - begin; }
  };

  /// Build from a point set (sort-based Morton pipeline). The original
  /// points are not stored; the tree keeps permuted coordinate planes plus
  /// the permutation back to input indices. The sort runs on the workers
  /// ws::with_workers picks; the tree is bitwise identical at any worker
  /// count. Every build and refit entry point throws util::CheckError
  /// naming the first point with a NaN or infinite coordinate.
  static Octree build(std::span<const geom::Vec3> points,
                      const BuildParams& params = {});

  bool empty() const { return nodes_.empty(); }
  std::size_t num_points() const { return point_index_.size(); }
  std::span<const Node> nodes() const { return nodes_; }
  const Node& node(std::uint32_t id) const { return nodes_[id]; }
  const Node& root() const { return nodes_.front(); }

  /// point_index()[tree_pos] = index into the original input array.
  std::span<const std::uint32_t> point_index() const { return point_index_; }

  /// SoA coordinate planes in tree order, written by every build and
  /// refit — the tree's only copy of its points. A node's atoms occupy the
  /// contiguous subrange [begin, end) of each plane, so leaf batches are
  /// plain subspans.
  std::span<const double> soa_x() const { return soa_x_; }
  std::span<const double> soa_y() const { return soa_y_; }
  std::span<const double> soa_z() const { return soa_z_; }
  /// The point at tree position `pos`, assembled from the planes.
  geom::Vec3 point(std::uint32_t pos) const {
    return {soa_x_[pos], soa_y_[pos], soa_z_[pos]};
  }

  /// Node ids of all leaves, in tree (left-to-right) order. The paper's
  /// node-based work division segments exactly this sequence.
  const std::vector<std::uint32_t>& leaf_ids() const { return leaf_ids_; }

  int max_depth() const { return max_depth_; }

  /// Memory footprint (replication accounting).
  std::size_t footprint_bytes() const;

  /// Internal consistency check (ranges, child links, radii). Used by
  /// the tests' structural checks; returns true when every invariant
  /// holds.
  bool validate() const;

  /// Refit: move the points to `positions` (input order, same length as
  /// the original build) *without changing the topology*, recomputing
  /// centroids and exact enclosing radii bottom-up in O(n). The
  /// admissibility tests stay sound because they only consult
  /// centroids/radii; see octree/dynamic.hpp for the quality-triggered
  /// rebuild policy.
  void refit(std::span<const geom::Vec3> positions);

  /// Construction statistics for this tree (per-instance so concurrent
  /// service builds never race on a shared counter).
  const perf::TreeBuildCounters& build_stats() const { return stats_; }

  /// Assemble a tree from its parts (used by the test-reference legacy
  /// partitioner). `points` are in tree order; they fill the SoA planes,
  /// and leaf ids and the depth are derived from the nodes. Throws
  /// util::CheckError naming the first point with a NaN or infinite
  /// coordinate; callers should validate() the rest.
  static Octree from_parts(std::vector<Node> nodes,
                           std::span<const geom::Vec3> points,
                           std::vector<std::uint32_t> point_index);

 private:
  void set_point(std::size_t pos, const geom::Vec3& p) {
    soa_x_[pos] = p.x;
    soa_y_[pos] = p.y;
    soa_z_[pos] = p.z;
  }
  void assign_planes(std::span<const geom::Vec3> pts);  ///< resize + fill
  void finish_derived();  ///< max_depth_ + leaf_ids_ from nodes_

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> point_index_;  // permuted → original
  std::vector<std::uint32_t> leaf_ids_;
  std::vector<double> soa_x_, soa_y_, soa_z_;  // coordinate planes, permuted
  perf::TreeBuildCounters stats_;
  int max_depth_ = 0;

  friend struct MortonBuilder;
};

}  // namespace octgb::octree
