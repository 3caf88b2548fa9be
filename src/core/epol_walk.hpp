#pragma once
/// \file epol_walk.hpp
/// The one Epol-phase descent of octgb_core (DESIGN.md §2.14): the Fig. 3
/// walk of APPROX-EPOL. Internal to octgb_core: not part of the installed
/// headers.
///
/// A V side — a leaf (of the walked tree, or of the other body on the
/// cross path), or a single atom as a leaf of radius 0 — walks the tree
/// from a node U and resolves every node it meets:
///
///   U leaf                 → sink.near(u_id, parent of U, u, counts);
///   epol_far_enough(d, …)  → sink.far(u_id, c_U − c_V, d², counts);
///   otherwise              → sum = 0; sum += walk(child)…
///
/// and returns the sum of the sink's values. The sinks are energy
/// (epol.cpp: plain, mirrored, atom-based and cross), force (forces.cpp)
/// and near-set collect (data_distributed.cpp). Every caller evaluates
/// the admissibility test here, with the same operands, so their
/// decisions agree bit for bit. Near leaves arrive in tree order, so
/// consecutive ones often abut: the energy sink coalesces them into runs
/// (near_field.hpp NearRun) and flushes after the walk.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "atomic_add.hpp"
#include "octgb/core/gb_params.hpp"
#include "octgb/octree/octree.hpp"
#include "octgb/perf/counters.hpp"
#include "octgb/ws/scheduler.hpp"

namespace octgb::core::detail {

/// Per-task Epol tallies, flushed once per block by ordered_sum.
struct EpolCounts {
  std::uint64_t exact = 0, binpairs = 0, visits = 0;
};

/// Walk the subtree of `u_id` (whose parent is `parent`; the root is its
/// own) against the V side at centroid `vc`, radius `vr`, with opening
/// factor `k` = epol_threshold(ε). Counts one visit per node.
template <class Sink>
double epol_walk(const octree::Octree& tree, std::uint32_t u_id,
                 std::uint32_t parent, const geom::Vec3& vc, double vr,
                 double k, Sink& sink, EpolCounts& counts) {
  ++counts.visits;
  const octree::Octree::Node& u = tree.node(u_id);
  const double d2 = geom::dist2(u.centroid, vc);
  if (u.is_leaf()) return sink.near(u_id, parent, u, counts);
  if (epol_far_enough(std::sqrt(d2), u.radius, vr, k))
    return sink.far(u_id, u.centroid - vc, d2, counts);
  double sum = 0.0;
  for (std::uint8_t c = 0; c < u.child_count; ++c)
    sum += epol_walk(tree, u.first_child + c, u_id, vc, vr, k, sink, counts);
  return sum;
}

/// The whole walk, from the root.
template <class Sink>
double epol_walk(const octree::Octree& tree, const geom::Vec3& vc, double vr,
                 double k, Sink& sink, EpolCounts& counts) {
  return epol_walk(tree, 0, 0, vc, vr, k, sink, counts);
}

/// Owner of a mutual exact leaf pair of the mirrored near field
/// (DESIGN.md §2.12): whether V's descent evaluates the pair (U, V),
/// U ≠ V, for both sides, given both leaves' parents. Exactly one of
/// (V, U) and (U, V) owns a pair, and for a parent other than V's, all
/// its children fall on one side, so runs of sibling leaves stay whole.
inline bool owns_mutual_pair(std::uint32_t v_id, std::uint32_t v_parent,
                             std::uint32_t u_id, std::uint32_t u_parent) {
  return ((u_parent + v_parent) & 1u) ? v_id < u_id : v_id > u_id;
}

/// Deterministic parallel sum of an Epol pass. The items [0, n) are cut
/// into at most kSumBlocks fixed contiguous blocks; one task sums a
/// block's items in order (`block(lo, hi, counts)` returns that sum), and
/// the block sums are folded in block order. The association depends only
/// on n, so the result is bitwise identical at every worker count, with
/// or without a scheduler; up to kSumBlocks items it is the plain serial
/// left-to-right sum. Counter tallies are exact integer sums.
inline constexpr std::size_t kSumBlocks = 256;

template <class Block>
double ordered_sum(std::size_t n, perf::WorkCounters& counters,
                   const Block& block) {
  std::array<double, kSumBlocks> partial{};
  const std::size_t blocks = std::min(n, kSumBlocks);
  ws::Scheduler::parallel_for(
      0, static_cast<std::int64_t>(blocks), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t b = lo; b < hi; ++b) {
          EpolCounts lc;
          partial[b] = block(b * n / blocks, (b + 1) * n / blocks, lc);
          atomic_add(counters.epol_exact, lc.exact);
          atomic_add(counters.epol_bins, lc.binpairs);
          atomic_add(counters.epol_visits, lc.visits);
        }
      });
  double total = 0.0;
  for (std::size_t b = 0; b < blocks; ++b) total += partial[b];
  return total;
}

}  // namespace octgb::core::detail
