#pragma once
/// \file workdiv.hpp
/// Static work division across ranks (§IV-A, "explicit static load
/// balancing"): contiguous segmentation of leaf sequences and atom ranges.
///
/// The paper divides *leaf nodes evenly by count*; we also provide a
/// weighted split (balancing the number of points under the leaves), used
/// by the load-balancing ablation. make_division() assembles the Fig. 4
/// division every distributed driver runs (run_hybrid, the elastic
/// driver, sim::simulate_cluster, run_data_distributed).

#include <cstdint>
#include <span>
#include <vector>

#include "octgb/octree/octree.hpp"

namespace octgb::core {

class GBEngine;  // core/engine.hpp

/// Contiguous index range [begin, end).
struct Segment {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  std::uint32_t size() const { return end - begin; }
};

/// i-th of P even segments of [0, n) (remainder spread over the first
/// segments — the ⌈n/P⌉ division of the paper).
Segment even_segment(std::size_t n, int parts, int index);

/// Split a leaf sequence into P contiguous segments balanced by the
/// number of points under each leaf (weighted extension).
std::vector<Segment> weighted_leaf_segments(const octree::Octree& tree,
                                            std::span<const std::uint32_t> leaves,
                                            int parts);

/// The static Fig. 4 work division of `ranks` processes, identical on
/// every rank (the paper's replicated-data processes each compute it
/// locally, and so does every rank process under the out-of-process
/// transport): segment i of each list is rank i's share.
struct Division {
  std::vector<Segment> q_segments;       ///< of q_leaves(): Born integrals
  std::vector<Segment> a_leaf_segments;  ///< of a_leaves(): node-based Epol
  std::vector<Segment> atom_segments;    ///< of the atoms: push, atom Epol
};

/// `engine`'s division over `ranks`: the leaf lists split evenly by count,
/// or by points under the leaves when `weighted`; the atoms always evenly.
Division make_division(const GBEngine& engine, int ranks, bool weighted);

/// Bytes one replicated-data process holds: the molecule data (trees +
/// payloads, GBEngine::footprint_bytes), its private working arrays
/// (node_s, atom_s and the Born radii) and the work-stealing runtime's
/// per-worker overhead (deques, reserved stacks) for `threads` workers —
/// why the paper's measured node-memory ratio is 5.86 rather than
/// exactly 6.
std::size_t replicated_rank_bytes(const GBEngine& engine, int threads);

}  // namespace octgb::core
