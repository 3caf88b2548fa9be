#include "octgb/core/workdiv.hpp"

#include "octgb/core/engine.hpp"
#include "octgb/util/check.hpp"

namespace octgb::core {

Segment even_segment(std::size_t n, int parts, int index) {
  OCTGB_CHECK_MSG(parts >= 1 && index >= 0 && index < parts,
                  "bad segment request " << index << "/" << parts);
  const std::uint64_t q = n / static_cast<std::uint64_t>(parts);
  const std::uint64_t r = n % static_cast<std::uint64_t>(parts);
  const std::uint64_t idx = static_cast<std::uint64_t>(index);
  const std::uint64_t begin = idx * q + std::min<std::uint64_t>(idx, r);
  const std::uint64_t len = q + (idx < r ? 1 : 0);
  return {static_cast<std::uint32_t>(begin),
          static_cast<std::uint32_t>(begin + len)};
}

std::vector<Segment> weighted_leaf_segments(
    const octree::Octree& tree, std::span<const std::uint32_t> leaves,
    int parts) {
  OCTGB_CHECK_MSG(parts >= 1, "parts must be positive");
  std::uint64_t total = 0;
  for (std::uint32_t id : leaves) total += tree.node(id).size();

  std::vector<Segment> out;
  out.reserve(parts);
  std::uint32_t cursor = 0;
  std::uint64_t consumed = 0;
  for (int p = 0; p < parts; ++p) {
    const std::uint32_t begin = cursor;
    // Greedy: take leaves until this part reaches its proportional share.
    const std::uint64_t target =
        total * static_cast<std::uint64_t>(p + 1) /
        static_cast<std::uint64_t>(parts);
    while (cursor < leaves.size() && consumed < target) {
      consumed += tree.node(leaves[cursor]).size();
      ++cursor;
    }
    out.push_back({begin, cursor});
  }
  out.back().end = static_cast<std::uint32_t>(leaves.size());
  return out;
}

Division make_division(const GBEngine& engine, int ranks, bool weighted) {
  const auto& q_leaves = engine.q_leaves();
  const auto& a_leaves = engine.a_leaves();
  Division d;
  if (weighted) {
    d.q_segments =
        weighted_leaf_segments(engine.qpoints_tree().tree, q_leaves, ranks);
    d.a_leaf_segments =
        weighted_leaf_segments(engine.atoms_tree().tree, a_leaves, ranks);
  }
  for (int i = 0; i < ranks; ++i) {
    if (!weighted) {
      d.q_segments.push_back(even_segment(q_leaves.size(), ranks, i));
      d.a_leaf_segments.push_back(even_segment(a_leaves.size(), ranks, i));
    }
    d.atom_segments.push_back(even_segment(engine.num_atoms(), ranks, i));
  }
  return d;
}

std::size_t replicated_rank_bytes(const GBEngine& engine, int threads) {
  return engine.footprint_bytes() +
         (engine.num_ta_nodes() + 2 * engine.num_atoms()) * sizeof(double) +
         std::size_t{65536} * static_cast<std::size_t>(threads - 1);
}

}  // namespace octgb::core
