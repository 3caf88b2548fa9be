#include "octgb/octree/octree.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>

#include "octgb/octree/morton.hpp"
#include "octgb/trace/trace.hpp"
#include "octgb/util/check.hpp"
#include "octgb/ws/scheduler.hpp"
#include "octgb/ws/sort.hpp"

namespace octgb::octree {

namespace {

bool finite(const geom::Vec3& p) {
  return std::isfinite(p.x) && std::isfinite(p.y) && std::isfinite(p.z);
}

/// Throws CheckError naming the first non-finite point of `pts`. A NaN or
/// infinite coordinate has no Morton cell and poisons every centroid and
/// radius above its leaf, so every entry point rejects it.
void check_finite(std::span<const geom::Vec3> pts, const char* op) {
  for (std::size_t i = 0; i < pts.size(); ++i)
    OCTGB_CHECK_MSG(finite(pts[i]), op << ": point " << i
                                       << " has a non-finite coordinate "
                                       << pts[i]);
}

// ---------------------------------------------------------------------------
// Shared geometry passes (build + refit use these).

/// Exact centroid and exact enclosing radius of one node: a flat pass over
/// its own contiguous range. The result depends only on the node's range,
/// never on other nodes, so serial and parallel sweeps agree bitwise —
/// and so does the tests' legacy partitioner, whose geometry is a refit,
/// when its partition matches.
/// (An earlier draft aggregated internal radii hierarchically from child
/// bounds in O(#nodes); the conservative enclosure shifted traversal
/// admissibility enough to push deep-tree energies out of their accuracy
/// budgets, so every node gets the exact pass.)
void node_geometry(Octree::Node& nd, const Octree& t) {
  geom::Vec3 c;
  for (std::uint32_t i = nd.begin; i < nd.end; ++i) c += t.point(i);
  nd.centroid = c / static_cast<double>(nd.size());
  double r2 = 0.0;
  for (std::uint32_t i = nd.begin; i < nd.end; ++i)
    r2 = std::max(r2, geom::dist2(nd.centroid, t.point(i)));
  nd.radius = std::sqrt(r2);
}

/// Serial geometry sweep over `nodes` (the node array of `t`; refit).
/// O(Σ node sizes) = O(N · depth).
void exact_geometry(std::span<Octree::Node> nodes, const Octree& t) {
  for (Octree::Node& nd : nodes) node_geometry(nd, t);
}

/// Morton-build geometry: the same exact per-node pass, parallelized
/// across nodes (node ranges overlap ancestor ranges but each node only
/// writes itself, and reads of the coordinate planes race with nothing).
void morton_geometry(std::span<Octree::Node> nodes, const Octree& t) {
  ws::Scheduler::parallel_for(
      0, static_cast<std::int64_t>(nodes.size()), 0,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t id = lo; id < hi; ++id) node_geometry(nodes[id], t);
      });
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

/// Morton build implementation over an Octree's private state.
struct MortonBuilder {
  /// Scatter sorted (key, id) pairs into the tree arrays: permutation and
  /// the SoA coordinate planes — one pass, parallel across disjoint
  /// subranges.
  static void scatter(Octree& t, std::span<const KeyId> pairs,
                      std::span<const geom::Vec3> input) {
    const std::size_t n = pairs.size();
    t.point_index_.resize(n);
    t.soa_x_.resize(n);
    t.soa_y_.resize(n);
    t.soa_z_.resize(n);
    ws::Scheduler::parallel_for(
        0, static_cast<std::int64_t>(n), 0,
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i) {
            const KeyId kv = pairs[i];
            t.point_index_[i] = kv.id;
            t.set_point(i, input[kv.id]);
          }
        });
  }

  /// Derive the node array from the sorted (key, id) pairs of a grid with
  /// `bits` levels: at each node, the eight child runs are found by binary
  /// search on the key digit of the node's level (a longest-common-prefix
  /// split of the sorted sequence). Nodes are emitted in the exact order of
  /// the legacy recursive partitioner (kept as a test reference in
  /// tests/support) — children allocated contiguously when their parent is
  /// processed, work stacked in ascending-digit order — so identical
  /// partitions yield identical node arrays. A range becomes a leaf when
  /// it is small enough, the depth cap is hit, or its keys are all equal
  /// (coincident cells cannot be split by any deeper digit; the legacy
  /// builder instead chains to its degenerate-cell guard — a documented
  /// divergence pinned by octree_equiv_test).
  static void derive_nodes(Octree& t, std::span<const KeyId> pairs, int bits,
                           const BuildParams& params) {
    const auto key = [&](std::uint32_t i) { return pairs[i].key; };
    std::vector<std::uint32_t> stack;

    Octree::Node rootn;
    rootn.begin = 0;
    rootn.end = static_cast<std::uint32_t>(pairs.size());
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
                             key(node.begin) == key(node.end - 1);
      if (!make_leaf) {
        // Digit block of this level sits at bit offset `shift`; everything
        // above it is the prefix shared by the whole range.
        const int shift = 3 * (bits - 1 - level);
        const std::uint64_t prefix =
            key(node.begin) & ~((std::uint64_t{1} << (shift + 3)) - 1);
        std::array<std::uint32_t, 9> bs;
        bs[0] = node.begin;
        bs[8] = node.end;
        for (std::uint64_t d = 1; d < 8; ++d) {
          const auto it = std::lower_bound(
              pairs.begin() + node.begin, pairs.begin() + node.end,
              prefix | (d << shift),
              [](const KeyId& p, std::uint64_t k) { return p.key < k; });
          bs[d] = static_cast<std::uint32_t>(it - pairs.begin());
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
                       std::vector<KeyId>& pairs, const MortonGrid& grid,
                       const BuildParams& params, bool comparison_sort) {
    const std::size_t n = input.size();
    {
      OCTGB_SPAN("tree.build.sort");
      pairs.resize(n);
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
      derive_nodes(t, pairs, grid.bits, params);
    }
    {
      OCTGB_SPAN("tree.build.geometry");
      morton_geometry(t.nodes_, t);
    }
  }

  static Octree build(std::span<const geom::Vec3> input,
                      const MortonGrid& grid, const BuildParams& params) {
    Octree t;
    if (input.empty()) return t;
    ++t.stats_.morton_builds;
    t.stats_.points_sorted += input.size();

    std::vector<KeyId> pairs;
    // Sort + scatter + leaf geometry all parallelize; below 8192 points a
    // private pool costs more than it saves.
    ws::with_workers(input.size(), 8192, [&](bool parallel) {
      pipeline(t, input, pairs, grid, params, parallel);
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

Octree Octree::from_parts(std::vector<Node> nodes,
                          std::span<const geom::Vec3> points,
                          std::vector<std::uint32_t> point_index) {
  check_finite(points, "Octree::from_parts");
  Octree t;
  t.nodes_ = std::move(nodes);
  t.assign_planes(points);
  t.point_index_ = std::move(point_index);
  t.finish_derived();
  return t;
}

void Octree::refit(std::span<const geom::Vec3> positions) {
  OCTGB_CHECK_MSG(positions.size() == num_points(),
                  "refit needs the original point count");
  // Checked before the first write, so a rejected refit leaves the tree
  // as it was.
  check_finite(positions, "Octree::refit");
  for (std::size_t pos = 0; pos < point_index_.size(); ++pos)
    set_point(pos, positions[point_index_[pos]]);
  // Every build stores the exact per-node geometry, so this sweep is a
  // bitwise no-op on unchanged positions — an identity refit never
  // perturbs traversal partitions or captured plans.
  exact_geometry(nodes_, *this);
}

void Octree::assign_planes(std::span<const geom::Vec3> pts) {
  soa_x_.resize(pts.size());
  soa_y_.resize(pts.size());
  soa_z_.resize(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) set_point(i, pts[i]);
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
         point_index_.capacity() * sizeof(std::uint32_t) +
         leaf_ids_.capacity() * sizeof(std::uint32_t) +
         (soa_x_.capacity() + soa_y_.capacity() + soa_z_.capacity()) *
             sizeof(double);
}

bool Octree::validate() const {
  const std::size_t n_pts = num_points();
  if (nodes_.empty()) return n_pts == 0;
  if (soa_x_.size() != n_pts || soa_y_.size() != n_pts ||
      soa_z_.size() != n_pts)
    return false;
  std::vector<bool> seen(n_pts, false);
  for (std::uint32_t id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    if (n.begin > n.end || n.end > n_pts) return false;
    if (n.size() == 0) return false;
    if (n.is_leaf()) {
      for (std::uint32_t i = n.begin; i < n.end; ++i) {
        const std::uint32_t orig = point_index_[i];
        if (orig >= n_pts || seen[orig]) return false;
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
    // Radius must enclose all points under the node (written so that a
    // NaN centroid or radius fails too).
    for (std::uint32_t i = n.begin; i < n.end; ++i) {
      if (!(geom::dist(n.centroid, point(i)) <= n.radius + 1e-9)) return false;
    }
  }
  for (bool s : seen)
    if (!s) return false;
  return true;
}

}  // namespace octgb::octree
