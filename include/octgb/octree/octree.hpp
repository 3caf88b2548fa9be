#pragma once
/// \file octree.hpp
/// Adaptive octree over 3D points, stored as a flat node array with
/// contiguous sibling blocks and a contiguous point range per node — the
/// cache-friendly layout the paper credits for part of its speedup.
///
/// Construction is a linear-octree pipeline over Morton location codes
/// (DESIGN.md §2.9): quantize to a 2^grid_bits grid, sort (key, id) pairs
/// (in parallel under a ws::Scheduler), derive nodes from longest-common-
/// prefix runs of the sorted keys, and emit them in the same
/// parents-before-children order the legacy recursive partitioner used.
/// The sorted point order doubles as the SoA leaf-plane order: the tree
/// owns its coordinate planes (soa_x/y/z), so core/trees.hpp no longer
/// gathers them. The legacy builder survives as build_legacy(), the test
/// reference the build-equivalence differential compares against.
///
/// The same structure stores both the atoms octree T_A and the
/// quadrature-points octree T_Q; per-point payloads (charges, Born radii,
/// weighted normals) live in external arrays indexed through point_index().

#include <cstdint>
#include <span>
#include <vector>

#include "octgb/geom/aabb.hpp"
#include "octgb/geom/vec3.hpp"
#include "octgb/octree/morton.hpp"
#include "octgb/perf/counters.hpp"

namespace octgb::octree {

/// Build-time knobs. Every field shapes tree topology, so svc/digest.hpp
/// must pin all of them in the artifact-cache key.
struct BuildParams {
  std::uint32_t max_leaf_size = 32;  ///< split nodes larger than this
  int max_depth = 24;                ///< hard depth cap (degenerate inputs)
  /// Morton quantization bits per axis (clamped to 1..21). Coarser grids
  /// merge near-coincident points into shared keys earlier.
  std::uint8_t grid_bits = 21;
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
                                ///< it (both builders; see DESIGN.md §2.9)
    std::uint32_t begin = 0;    ///< first point (tree order)
    std::uint32_t end = 0;      ///< one past last point (tree order)
    std::uint32_t first_child = kNoChild;
    std::uint8_t child_count = 0;
    std::uint8_t depth = 0;

    bool is_leaf() const { return first_child == kNoChild; }
    std::uint32_t size() const { return end - begin; }
  };

  /// Build from a point set (sort-based Morton pipeline). The original
  /// points are not stored; the tree keeps a permuted copy plus the
  /// permutation back to input indices. The sort runs on the workers
  /// ws::with_workers picks; the tree is bitwise identical at any worker
  /// count. Every build, refit and resort entry point throws
  /// util::CheckError naming the first point with a NaN or infinite
  /// coordinate.
  static Octree build(std::span<const geom::Vec3> points,
                      const BuildParams& params = {});

  /// The pre-Morton recursive partitioner, kept as the reference the
  /// build-equivalence differential test (octree_equiv_test) compares
  /// against and as the serial baseline bench_octree_build times.
  static Octree build_legacy(std::span<const geom::Vec3> points,
                             const BuildParams& params = {});

  /// Morton build over a caller-pinned grid instead of the points' own
  /// bounding cube. resort() is defined as bit-identical to this.
  static Octree build_with_grid(std::span<const geom::Vec3> points,
                                const MortonGrid& grid,
                                const BuildParams& params = {});

  bool empty() const { return nodes_.empty(); }
  std::size_t num_points() const { return points_.size(); }
  std::span<const Node> nodes() const { return nodes_; }
  const Node& node(std::uint32_t id) const { return nodes_[id]; }
  const Node& root() const { return nodes_.front(); }

  /// Points in tree order (each node's points are contiguous).
  std::span<const geom::Vec3> points() const { return points_; }
  /// point_index()[tree_pos] = index into the original input array.
  std::span<const std::uint32_t> point_index() const { return point_index_; }

  /// SoA coordinate planes in tree order, maintained by every build, refit
  /// and resort path. A node's atoms occupy the contiguous subrange
  /// [begin, end) of each plane, so leaf batches are plain subspans.
  std::span<const double> soa_x() const { return soa_x_; }
  std::span<const double> soa_y() const { return soa_y_; }
  std::span<const double> soa_z() const { return soa_z_; }

  /// True when the tree carries Morton state (grid + sorted keys): built
  /// by build() / build_with_grid() or loaded from a serialize-v2 stream that had
  /// it. Legacy-built and v1-loaded trees return false.
  bool has_morton() const { return grid_.bits != 0; }
  /// The quantization grid of the build (meaningful when has_morton()).
  const MortonGrid& grid() const { return grid_; }
  /// Sorted build-time Morton keys, tree order (empty unless has_morton()).
  /// refit() deliberately leaves them stale: resort() diffs fresh keys
  /// against these to find which points moved cells.
  std::span<const std::uint64_t> keys() const { return keys_; }

  /// Node ids of all leaves, in tree (left-to-right) order. The paper's
  /// node-based work division segments exactly this sequence.
  const std::vector<std::uint32_t>& leaf_ids() const { return leaf_ids_; }

  int max_depth() const { return max_depth_; }

  /// Memory footprint (replication accounting).
  std::size_t footprint_bytes() const;

  /// Internal consistency check (ranges, child links, radii, and — when
  /// has_morton() — key-array shape and sortedness). Used by tests;
  /// returns true when every invariant holds.
  bool validate() const;

  /// Refit: move the points to `positions` (input order, same length as
  /// the original build) *without changing the topology*, recomputing
  /// centroids and exact enclosing radii bottom-up in O(n). The
  /// admissibility tests stay sound because they only consult
  /// centroids/radii; see octree/dynamic.hpp for the quality-triggered
  /// rebuild policy and the re-sort alternative.
  void refit(std::span<const geom::Vec3> positions);

  /// Re-sort refit (Morton trees only): re-quantize `positions` on the
  /// build grid, re-sort only the points whose key changed (stayed points
  /// are an already-sorted subsequence; the two merge in O(n)), and
  /// re-derive nodes — the result is bit-identical to
  /// build_with_grid(positions, grid(), params). Unlike refit() this
  /// restores tree quality, but the topology may change, so callers must
  /// rebase any RefitMonitor. Returns false (tree untouched) when a point
  /// escaped the build grid's cube — the caller should rebuild.
  bool resort(std::span<const geom::Vec3> positions,
              const BuildParams& params);

  /// Construction statistics for this tree (per-instance so concurrent
  /// service builds never race on a shared counter).
  const perf::TreeBuildCounters& build_stats() const { return stats_; }

  /// Reassemble a tree from its parts (used by serialize.hpp for v1
  /// streams and legacy trees). Derives leaf ids, the depth, and the SoA
  /// planes from the nodes/points; callers should validate().
  static Octree from_parts(std::vector<Node> nodes,
                           std::vector<geom::Vec3> points,
                           std::vector<std::uint32_t> point_index);

  /// Reassemble including the Morton state of a serialize-v2 stream.
  /// `keys` may be empty (legacy tree round-tripped through v2), in which
  /// case `grid` must be empty too and the result has has_morton()==false.
  static Octree from_parts(std::vector<Node> nodes,
                           std::vector<geom::Vec3> points,
                           std::vector<std::uint32_t> point_index,
                           std::vector<std::uint64_t> keys,
                           const MortonGrid& grid);

 private:
  void rebuild_soa_planes();
  void finish_derived();  ///< max_depth_ + leaf_ids_ from nodes_

  std::vector<Node> nodes_;
  std::vector<geom::Vec3> points_;        // permuted
  std::vector<std::uint32_t> point_index_;  // permuted → original
  std::vector<std::uint32_t> leaf_ids_;
  std::vector<double> soa_x_, soa_y_, soa_z_;  // coordinate planes
  std::vector<std::uint64_t> keys_;  // sorted build-time Morton keys
  MortonGrid grid_;                  // bits==0 ⇒ no Morton state
  perf::TreeBuildCounters stats_;
  int max_depth_ = 0;

  friend struct MortonBuilder;
};

}  // namespace octgb::octree
