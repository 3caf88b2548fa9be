#include "octgb/octree/octree.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>

#include "octgb/trace/trace.hpp"
#include "octgb/util/check.hpp"
#include "octgb/ws/scheduler.hpp"
#include "octgb/ws/sort.hpp"

namespace octgb::octree {

namespace {

bool finite(const geom::Vec3& p) {
  return std::isfinite(p.x) && std::isfinite(p.y) && std::isfinite(p.z);
}

/// A NaN or infinite coordinate has no Morton cell and poisons every
/// centroid and radius above its leaf, so every entry point rejects it.
void check_point(std::span<const geom::Vec3> pts, std::size_t i,
                 const char* op) {
  OCTGB_CHECK_MSG(finite(pts[i]), op << ": point " << i
                                     << " has a non-finite coordinate "
                                     << pts[i]);
}

/// Throws CheckError naming the first non-finite point of `pts`.
void check_finite(std::span<const geom::Vec3> pts, const char* op) {
  for (std::size_t i = 0; i < pts.size(); ++i) check_point(pts, i, op);
}

// ---------------------------------------------------------------------------
// Shared geometry passes (build + refit + resort use these; deduplicated
// from the former copies in build and refit).

/// Exact centroid and exact enclosing radius of one node: a flat pass over
/// its own contiguous range. The result depends only on the node's range,
/// never on other nodes, so serial and parallel sweeps agree bitwise —
/// and so do the legacy and Morton builders when their partitions match.
/// (An earlier draft aggregated internal radii hierarchically from child
/// bounds in O(#nodes); the conservative enclosure shifted traversal
/// admissibility enough to push deep-tree energies out of their accuracy
/// budgets, so every node gets the exact pass.)
void node_geometry(Octree::Node& nd, std::span<const geom::Vec3> pts) {
  geom::Vec3 c;
  for (std::uint32_t i = nd.begin; i < nd.end; ++i) c += pts[i];
  nd.centroid = c / static_cast<double>(nd.size());
  double r2 = 0.0;
  for (std::uint32_t i = nd.begin; i < nd.end; ++i)
    r2 = std::max(r2, geom::dist2(nd.centroid, pts[i]));
  nd.radius = std::sqrt(r2);
}

/// Serial geometry sweep (legacy build + refit; deduplicated from the
/// former copies in build and refit). O(Σ node sizes) = O(N · depth).
void exact_geometry(std::span<Octree::Node> nodes,
                    std::span<const geom::Vec3> pts) {
  for (Octree::Node& nd : nodes) node_geometry(nd, pts);
}

/// Morton-build geometry: the same exact per-node pass, parallelized
/// across nodes (node ranges overlap ancestor ranges but each node only
/// writes itself, and reads of `pts` race with nothing).
void morton_geometry(std::span<Octree::Node> nodes,
                     std::span<const geom::Vec3> pts) {
  ws::Scheduler::parallel_for(
      0, static_cast<std::int64_t>(nodes.size()), 0,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t id = lo; id < hi; ++id)
          node_geometry(nodes[id], pts);
      });
}

// ---------------------------------------------------------------------------
// Legacy recursive partitioner (reference implementation).

struct BuildCell {
  geom::Vec3 center;
  double half;
};

int octant_of(const geom::Vec3& p, const geom::Vec3& c) {
  return (p.x >= c.x ? 1 : 0) | (p.y >= c.y ? 2 : 0) | (p.z >= c.z ? 4 : 0);
}

// ---------------------------------------------------------------------------
// Morton pipeline pieces.

/// One (key, input-id) pair of the sort phase.
struct KeyId {
  std::uint64_t key;
  std::uint32_t id;
};

/// Strict total order (keys tie only for grid-coincident points; ids never
/// tie) — the sorted sequence is unique, so every sort path agrees.
bool key_id_less(const KeyId& a, const KeyId& b) {
  return a.key != b.key ? a.key < b.key : a.id < b.id;
}

/// Serial LSD radix sort over eight 8-bit digits. Stable, and the input
/// arrives in ascending-id order, so the result equals the (key, id)
/// lexicographic order the parallel comparison sort produces.
///
/// All eight histograms are gathered in a single read pass (8 × 256
/// counters = 8 KiB, L1-resident), then each digit either permutes or is
/// skipped when one bucket already holds the whole array (common for
/// clustered clouds, and always true for the top byte's unused bit).
/// 256 scatter targets keep the permute passes inside the cache/TLB,
/// which is what made this layout beat the earlier 16-bit-digit variant
/// with its 256 KiB counter clears. The pass count is a deterministic
/// function of the keys.
void radix_sort_pairs(std::vector<KeyId>& pairs,
                      perf::TreeBuildCounters& stats) {
  constexpr int kDigits = 8;
  constexpr int kBuckets = 256;
  const std::size_t n = pairs.size();
  std::vector<KeyId> scratch(n);
  std::array<std::array<std::uint32_t, kBuckets>, kDigits> count{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = pairs[i].key;
    for (int d = 0; d < kDigits; ++d) ++count[d][(k >> (8 * d)) & 0xff];
  }
  KeyId* src = pairs.data();
  KeyId* dst = scratch.data();
  for (int pass = 0; pass < kDigits; ++pass) {
    const int shift = 8 * pass;
    std::array<std::uint32_t, kBuckets>& c = count[pass];
    if (c[(src[0].key >> shift) & 0xff] == n) continue;
    std::uint32_t start = 0;
    for (int b = 0; b < kBuckets; ++b) {
      const std::uint32_t cb = c[b];
      c[b] = start;
      start += cb;
    }
    for (std::size_t i = 0; i < n; ++i)
      dst[c[(src[i].key >> shift) & 0xff]++] = src[i];
    std::swap(src, dst);
    ++stats.sort_passes;
  }
  if (src != pairs.data())
    std::copy(src, src + n, pairs.data());
}

}  // namespace

/// Morton build/resort implementation over an Octree's private state.
struct MortonBuilder {
  /// Scatter sorted (key, id) pairs into the tree arrays: permuted points,
  /// permutation, sorted keys, and the SoA coordinate planes — one pass,
  /// parallel across disjoint subranges.
  static void scatter(Octree& t, std::span<const KeyId> pairs,
                      std::span<const geom::Vec3> input) {
    const std::size_t n = pairs.size();
    t.points_.resize(n);
    t.point_index_.resize(n);
    t.keys_.resize(n);
    t.soa_x_.resize(n);
    t.soa_y_.resize(n);
    t.soa_z_.resize(n);
    ws::Scheduler::parallel_for(
        0, static_cast<std::int64_t>(n), 0,
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i) {
            const KeyId kv = pairs[i];
            const geom::Vec3 p = input[kv.id];
            t.keys_[i] = kv.key;
            t.point_index_[i] = kv.id;
            t.points_[i] = p;
            t.soa_x_[i] = p.x;
            t.soa_y_[i] = p.y;
            t.soa_z_[i] = p.z;
          }
        });
  }

  /// Derive the node array from the sorted keys: at each node, the eight
  /// child runs are found by binary search on the key digit of the node's
  /// level (a longest-common-prefix split of the sorted sequence). Nodes
  /// are emitted in the exact order of the legacy builder — children
  /// allocated contiguously when their parent is processed, work stacked
  /// in ascending-digit order — so identical partitions yield identical
  /// node arrays. A range becomes a leaf when it is small enough, the
  /// depth cap is hit, or its keys are all equal (coincident cells cannot
  /// be split by any deeper digit; the legacy builder instead chains to
  /// its degenerate-cell guard — a documented divergence pinned by
  /// octree_equiv_test).
  static void derive_nodes(Octree& t, const BuildParams& params) {
    const std::span<const std::uint64_t> keys = t.keys_;
    const int bits = t.grid_.bits;
    std::vector<std::uint32_t> stack;

    Octree::Node rootn;
    rootn.begin = 0;
    rootn.end = static_cast<std::uint32_t>(keys.size());
    rootn.depth = 0;
    t.nodes_.push_back(rootn);
    stack.push_back(0);

    while (!stack.empty()) {
      const std::uint32_t id = stack.back();
      stack.pop_back();
      Octree::Node node = t.nodes_[id];  // copy; vector may grow below
      t.max_depth_ = std::max(t.max_depth_, static_cast<int>(node.depth));

      const int level = node.depth;
      const bool make_leaf = node.size() <= params.max_leaf_size ||
                             node.depth >= params.max_depth ||
                             level >= bits ||
                             keys[node.begin] == keys[node.end - 1];
      if (!make_leaf) {
        // Digit block of this level sits at bit offset `shift`; everything
        // above it is the prefix shared by the whole range.
        const int shift = 3 * (bits - 1 - level);
        const std::uint64_t prefix =
            keys[node.begin] & ~((std::uint64_t{1} << (shift + 3)) - 1);
        std::array<std::uint32_t, 9> bs;
        bs[0] = node.begin;
        bs[8] = node.end;
        for (std::uint64_t d = 1; d < 8; ++d) {
          const auto it = std::lower_bound(
              keys.begin() + node.begin, keys.begin() + node.end,
              prefix | (d << shift));
          bs[d] = static_cast<std::uint32_t>(it - keys.begin());
        }
        const auto first_child = static_cast<std::uint32_t>(t.nodes_.size());
        std::uint8_t created = 0;
        for (int d = 0; d < 8; ++d) {
          if (bs[d + 1] == bs[d]) continue;
          Octree::Node child;
          child.begin = bs[d];
          child.end = bs[d + 1];
          child.depth = static_cast<std::uint8_t>(node.depth + 1);
          t.nodes_.push_back(child);
          ++created;
        }
        node.first_child = first_child;
        node.child_count = created;
        for (std::uint32_t c = 0; c < created; ++c)
          stack.push_back(first_child + c);
      }
      t.nodes_[id] = node;
    }
  }

  /// The full pipeline body (runs inside a scheduler when one is active).
  static void pipeline(Octree& t, std::span<const geom::Vec3> input,
                       std::vector<KeyId>& pairs, const BuildParams& params,
                       bool comparison_sort) {
    const std::size_t n = input.size();
    {
      OCTGB_SPAN("tree.build.sort");
      pairs.resize(n);
      const MortonGrid grid = t.grid_;
      // The key pass reads every point, so it also flags non-finite ones
      // (quantize() keeps their keys defined); the serial rescan that
      // names the first one runs only on that error path.
      std::atomic<bool> non_finite{false};
      ws::Scheduler::parallel_for(
          0, static_cast<std::int64_t>(n), 0,
          [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t i = lo; i < hi; ++i) {
              if (!finite(input[i])) non_finite = true;
              pairs[i] = {grid.key(input[i]),
                          static_cast<std::uint32_t>(i)};
            }
          });
      if (non_finite) check_finite(input, "Octree::build");
      if (comparison_sort)
        ws::parallel_sort(std::span<KeyId>(pairs), key_id_less);
      else
        radix_sort_pairs(pairs, t.stats_);
    }
    scatter(t, pairs, input);
    {
      OCTGB_SPAN("tree.build.derive");
      derive_nodes(t, params);
    }
    {
      OCTGB_SPAN("tree.build.geometry");
      morton_geometry(t.nodes_, t.points_);
    }
  }

  static Octree build(std::span<const geom::Vec3> input,
                      const MortonGrid& grid, const BuildParams& params) {
    Octree t;
    if (input.empty()) return t;
    t.grid_ = grid;
    ++t.stats_.morton_builds;
    t.stats_.points_sorted += input.size();

    std::vector<KeyId> pairs;
    // Sort + scatter + leaf geometry all parallelize; below 8192 points a
    // private pool costs more than it saves.
    ws::with_workers(input.size(), 8192, [&](bool parallel) {
      pipeline(t, input, pairs, params, parallel);
    });

    t.finish_derived();
    t.stats_.nodes_emitted += t.nodes_.size();
    t.stats_.leaves_emitted += t.leaf_ids_.size();
    return t;
  }
};

Octree Octree::build(std::span<const geom::Vec3> input,
                     const BuildParams& params) {
  OCTGB_SPAN("tree.build.morton");
  const int bits =
      std::clamp<int>(params.grid_bits, 1, kMortonMaxBits);
  return MortonBuilder::build(input, MortonGrid::of(input, bits), params);
}

Octree Octree::build_with_grid(std::span<const geom::Vec3> input,
                               const MortonGrid& grid,
                               const BuildParams& params) {
  OCTGB_SPAN("tree.build.morton");
  return MortonBuilder::build(input, grid, params);
}

Octree Octree::build_legacy(std::span<const geom::Vec3> input,
                            const BuildParams& params) {
  OCTGB_SPAN("tree.build.legacy");
  Octree t;
  if (input.empty()) return t;
  ++t.stats_.legacy_builds;

  t.points_.assign(input.begin(), input.end());
  t.point_index_.resize(input.size());
  for (std::uint32_t i = 0; i < input.size(); ++i) t.point_index_[i] = i;

  const geom::Aabb box = geom::Aabb::of(input).cubified();
  const BuildCell root_cell{box.center(),
                            std::max(box.max_extent() * 0.5, 1e-9)};

  // Work item: node id already allocated; subdivide or finalize as a leaf.
  struct WorkItem {
    std::uint32_t node_id;
    BuildCell cell;
  };
  std::vector<WorkItem> stack;

  t.nodes_.push_back(Node{});
  t.nodes_[0].begin = 0;
  t.nodes_[0].end = static_cast<std::uint32_t>(input.size());
  t.nodes_[0].depth = 0;
  stack.push_back({0, root_cell});

  std::array<std::uint32_t, 9> bucket_start;
  while (!stack.empty()) {
    const WorkItem item = stack.back();
    stack.pop_back();
    Node node = t.nodes_[item.node_id];  // copy; vector may reallocate below
    const std::uint32_t n = node.size();
    t.max_depth_ = std::max(t.max_depth_, static_cast<int>(node.depth));

    const bool make_leaf =
        n <= params.max_leaf_size || node.depth >= params.max_depth;
    if (!make_leaf) {
      // Count points per octant, then partition the range stably into
      // contiguous buckets (counting sort over 8 keys).
      std::array<std::uint32_t, 8> count{};
      for (std::uint32_t i = node.begin; i < node.end; ++i)
        ++count[octant_of(t.points_[i], item.cell.center)];

      bucket_start[0] = node.begin;
      for (int o = 0; o < 8; ++o)
        bucket_start[o + 1] = bucket_start[o] + count[o];

      // Permute points (and the index map) into octant order.
      {
        std::vector<geom::Vec3> tmp_pts(n);
        std::vector<std::uint32_t> tmp_idx(n);
        std::array<std::uint32_t, 8> cursor{};
        for (int o = 0; o < 8; ++o) cursor[o] = bucket_start[o] - node.begin;
        for (std::uint32_t i = node.begin; i < node.end; ++i) {
          const int o = octant_of(t.points_[i], item.cell.center);
          tmp_pts[cursor[o]] = t.points_[i];
          tmp_idx[cursor[o]] = t.point_index_[i];
          ++cursor[o];
        }
        std::copy(tmp_pts.begin(), tmp_pts.end(),
                  t.points_.begin() + node.begin);
        std::copy(tmp_idx.begin(), tmp_idx.end(),
                  t.point_index_.begin() + node.begin);
      }

      // Allocate the non-empty children contiguously.
      const auto first_child = static_cast<std::uint32_t>(t.nodes_.size());
      std::uint8_t created = 0;
      for (int o = 0; o < 8; ++o) {
        if (count[o] == 0) continue;
        Node child;
        child.begin = bucket_start[o];
        child.end = bucket_start[o] + count[o];
        child.depth = static_cast<std::uint8_t>(node.depth + 1);
        t.nodes_.push_back(child);
        ++created;
      }
      // Degenerate split (all coincident points land in one octant at the
      // same positions): fall back to a leaf to guarantee progress when
      // the cell can no longer separate them.
      if (created == 1 && t.nodes_.back().size() == n &&
          item.cell.half < 1e-7) {
        t.nodes_.pop_back();
        node.first_child = kNoChild;
        node.child_count = 0;
      } else {
        node.first_child = first_child;
        node.child_count = created;
        // Push children with their sub-cells.
        std::uint32_t cid = first_child;
        for (int o = 0; o < 8; ++o) {
          if (count[o] == 0) continue;
          BuildCell cc;
          cc.half = item.cell.half * 0.5;
          cc.center = item.cell.center +
                      geom::Vec3{(o & 1) ? cc.half : -cc.half,
                                 (o & 2) ? cc.half : -cc.half,
                                 (o & 4) ? cc.half : -cc.half};
          stack.push_back({cid, cc});
          ++cid;
        }
      }
    }
    t.nodes_[item.node_id] = node;
  }

  exact_geometry(t.nodes_, t.points_);
  t.rebuild_soa_planes();
  t.finish_derived();
  t.stats_.nodes_emitted += t.nodes_.size();
  t.stats_.leaves_emitted += t.leaf_ids_.size();
  return t;
}

bool Octree::resort(std::span<const geom::Vec3> positions,
                    const BuildParams& params) {
  OCTGB_CHECK_MSG(positions.size() == points_.size(),
                  "resort needs the original point count");
  OCTGB_CHECK_MSG(has_morton(),
                  "resort needs a Morton-built tree (has_morton())");
  OCTGB_SPAN("tree.resort");
  const std::size_t n = positions.size();
  // A point outside the build grid's cube would silently clamp to a
  // boundary cell; signal the caller to rebuild on a fresh grid instead.
  bool inside = true;
  for (std::size_t i = 0; i < n; ++i) {
    check_point(positions, i, "Octree::resort");
    inside = inside && grid_.contains(positions[i]);
  }
  if (!inside) return false;

  // Split the tree-order pairs into the stayed subsequence (new key equals
  // the stored build-time key — already (key, id)-sorted) and the moved
  // set, which is sorted on its own and merged back. The merge of two
  // sorted sequences under the strict total order is the full sorted
  // order, so the result is bit-identical to build_with_grid().
  std::vector<KeyId> stayed, moved;
  stayed.reserve(n);
  for (std::size_t pos = 0; pos < n; ++pos) {
    const std::uint32_t id = point_index_[pos];
    const std::uint64_t nk = grid_.key(positions[id]);
    if (nk == keys_[pos])
      stayed.push_back({nk, id});
    else
      moved.push_back({nk, id});
  }
  ++stats_.resorts;
  stats_.resort_moved += moved.size();
  stats_.points_sorted += moved.size();
  std::sort(moved.begin(), moved.end(), key_id_less);
  std::vector<KeyId> pairs(n);
  std::merge(stayed.begin(), stayed.end(), moved.begin(), moved.end(),
             pairs.begin(), key_id_less);

  nodes_.clear();
  leaf_ids_.clear();
  max_depth_ = 0;
  MortonBuilder::scatter(*this, pairs, positions);
  MortonBuilder::derive_nodes(*this, params);
  morton_geometry(nodes_, points_);
  finish_derived();
  stats_.nodes_emitted += nodes_.size();
  stats_.leaves_emitted += leaf_ids_.size();
  return true;
}

Octree Octree::from_parts(std::vector<Node> nodes,
                          std::vector<geom::Vec3> points,
                          std::vector<std::uint32_t> point_index) {
  return from_parts(std::move(nodes), std::move(points),
                    std::move(point_index), {}, MortonGrid{});
}

Octree Octree::from_parts(std::vector<Node> nodes,
                          std::vector<geom::Vec3> points,
                          std::vector<std::uint32_t> point_index,
                          std::vector<std::uint64_t> keys,
                          const MortonGrid& grid) {
  Octree t;
  t.nodes_ = std::move(nodes);
  t.points_ = std::move(points);
  t.point_index_ = std::move(point_index);
  t.keys_ = std::move(keys);
  t.grid_ = grid;
  t.rebuild_soa_planes();
  t.finish_derived();
  return t;
}

void Octree::refit(std::span<const geom::Vec3> positions) {
  OCTGB_CHECK_MSG(positions.size() == points_.size(),
                  "refit needs the original point count");
  // Checked before the first write, so a rejected refit leaves the tree
  // as it was.
  check_finite(positions, "Octree::refit");
  for (std::size_t pos = 0; pos < point_index_.size(); ++pos) {
    const geom::Vec3 p = positions[point_index_[pos]];
    points_[pos] = p;
    soa_x_[pos] = p.x;
    soa_y_[pos] = p.y;
    soa_z_[pos] = p.z;
  }
  // keys_ intentionally stays at its build-time state: resort() uses it to
  // detect which points have drifted out of their cells since the build.
  //
  // Both builders store the exact per-node geometry, so this sweep is a
  // bitwise no-op on unchanged positions — an identity refit never
  // perturbs traversal partitions or captured plans.
  exact_geometry(nodes_, points_);
}

void Octree::rebuild_soa_planes() {
  const std::size_t n = points_.size();
  soa_x_.resize(n);
  soa_y_.resize(n);
  soa_z_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    soa_x_[i] = points_[i].x;
    soa_y_[i] = points_[i].y;
    soa_z_[i] = points_[i].z;
  }
}

void Octree::finish_derived() {
  for (std::uint32_t id = 0; id < nodes_.size(); ++id) {
    max_depth_ = std::max(max_depth_, static_cast<int>(nodes_[id].depth));
    if (nodes_[id].is_leaf()) leaf_ids_.push_back(id);
  }
  // Left-to-right (point-range) order: leaf segments used for work
  // division are then spatially coherent, like the paper's.
  std::sort(leaf_ids_.begin(), leaf_ids_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return nodes_[a].begin < nodes_[b].begin;
            });
}

std::size_t Octree::footprint_bytes() const {
  return nodes_.capacity() * sizeof(Node) +
         points_.capacity() * sizeof(geom::Vec3) +
         point_index_.capacity() * sizeof(std::uint32_t) +
         leaf_ids_.capacity() * sizeof(std::uint32_t) +
         (soa_x_.capacity() + soa_y_.capacity() + soa_z_.capacity()) *
             sizeof(double) +
         keys_.capacity() * sizeof(std::uint64_t);
}

bool Octree::validate() const {
  if (nodes_.empty()) return points_.empty();
  if (soa_x_.size() != points_.size() || soa_y_.size() != points_.size() ||
      soa_z_.size() != points_.size())
    return false;
  if (has_morton()) {
    // The sorted-key array must mirror the point order exactly.
    if (keys_.size() != points_.size()) return false;
    if (!std::is_sorted(keys_.begin(), keys_.end())) return false;
  } else if (!keys_.empty()) {
    return false;  // keys without a grid cannot be interpreted
  }
  std::vector<bool> seen(points_.size(), false);
  for (std::uint32_t id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    if (n.begin > n.end || n.end > points_.size()) return false;
    if (n.size() == 0) return false;
    if (n.is_leaf()) {
      for (std::uint32_t i = n.begin; i < n.end; ++i) {
        const std::uint32_t orig = point_index_[i];
        if (orig >= points_.size() || seen[orig]) return false;
        seen[orig] = true;
      }
    } else {
      // Children must tile the parent's range exactly, in order.
      if (n.first_child >= nodes_.size() || n.child_count == 0) return false;
      std::uint32_t cursor = n.begin;
      for (std::uint8_t c = 0; c < n.child_count; ++c) {
        const Node& ch = nodes_[n.first_child + c];
        if (ch.begin != cursor) return false;
        if (ch.depth != n.depth + 1) return false;
        cursor = ch.end;
      }
      if (cursor != n.end) return false;
    }
    // Radius must enclose all points under the node.
    for (std::uint32_t i = n.begin; i < n.end; ++i) {
      if (geom::dist(n.centroid, points_[i]) > n.radius + 1e-9) return false;
    }
    // The SoA planes must mirror the permuted points.
    for (std::uint32_t i = n.begin; i < n.end; ++i) {
      if (soa_x_[i] != points_[i].x || soa_y_[i] != points_[i].y ||
          soa_z_[i] != points_[i].z)
        return false;
    }
  }
  for (bool s : seen)
    if (!s) return false;
  return true;
}

}  // namespace octgb::octree
