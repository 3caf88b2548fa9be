#pragma once
/// \file dual_traversal.hpp
/// The *original* shared-memory algorithm of Chowdhury & Bajaj [6], [7]:
/// Born-radius integrals via simultaneous recursive traversal of both
/// octrees (Fig. 1 of the paper). This is the algorithm behind the
/// OCT_CILK configuration; §IV notes "the major difference of our
/// [distributed] approach from [6] is that we only traverse one octree".
///
/// Traversal rules (§II):
///  * if (A, Q) are far enough — same admissibility as APPROX-INTEGRALS —
///    approximate all of Q's contribution to A with one pseudo-interaction
///    (Q may be an *internal* node here, unlike the one-tree algorithm
///    where Q is always a leaf);
///  * if both are leaves, accumulate exactly;
///  * otherwise recurse into the children of the non-leaf node(s) —
///    when both are internal, into the one with the larger radius (the
///    standard dual-tree refinement rule).
///
/// It runs as the same owner-major Born walk as approx_integrals(),
/// started from the T_Q root instead of the T_Q leaves (DESIGN.md §2.6):
/// T_A splits become pass-down lists forked over T_A children, T_Q splits
/// happen in place, and each slot has one writer adding its terms in the
/// serial recursion's order.

#include <cstdint>
#include <span>

#include "octgb/core/gb_params.hpp"
#include "octgb/core/trees.hpp"
#include "octgb/perf/counters.hpp"
#include "octgb/simd/types.hpp"

namespace octgb::core {

/// Dual-tree APPROX-INTEGRALS: accumulates node partials into `node_s`
/// (one slot per T_A node) and exact leaf sums into `atom_s` (tree
/// order), exactly like approx_integrals() — the PUSH phase is shared.
/// Bitwise at every worker count; the walk forks under an active
/// scheduler. `vector` and `approx_math` pick the exact leaf×leaf
/// arithmetic through the same near-field selector as approx_integrals().
void approx_integrals_dual(const AtomsTree& ta, const QPointsTree& tq,
                           double eps_born, bool approx_math,
                           std::span<double> node_s,
                           std::span<double> atom_s,
                           perf::WorkCounters& counters,
                           bool strict_criterion = false,
                           const simd::VectorParams& vector = {});

}  // namespace octgb::core
