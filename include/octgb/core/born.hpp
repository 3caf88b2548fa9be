#pragma once
/// \file born.hpp
/// The paper's Fig. 2 kernels: APPROX-INTEGRALS (near–far approximation of
/// the r⁶ Born surface integral, accumulating node partials s_A and leaf
/// exact sums s_a) and PUSH-INTEGRALS-TO-ATOMS (top-down prefix push and
/// Born-radius finalization).
///
/// Work division follows §IV: the caller hands each rank a *segment of T_Q
/// leaf ids* (node-based division). Inside a rank, APPROX-INTEGRALS runs
/// as the owner-major Born walk (DESIGN.md §2.6): T_A is descended once,
/// each node carrying the T_Q leaves that reached it, and the walk forks
/// over T_A children under the work-stealing scheduler when one is
/// active. Every s-array slot is written by the one task owning its T_A
/// node, in serial Q-major order, and the far terms' A-side gradients
/// reach the atoms through one top-down pass after the walk — no
/// atomics, and the results are bitwise at every worker count.

#include <cstdint>
#include <span>

#include "octgb/core/gb_params.hpp"
#include "octgb/core/trees.hpp"
#include "octgb/perf/counters.hpp"
#include "octgb/simd/types.hpp"

namespace octgb::core {

class PlanRecorder;  // core/plan.hpp

/// Accumulate approximate integrals for the given T_Q leaves into
/// `node_s` (one slot per T_A node) and `atom_s` (one slot per atom, tree
/// order). Both spans must be pre-sized and are added to, not overwritten —
/// ranks each process disjoint leaf sets and then Allreduce the arrays.
/// Each term is added to its slot in the serial Q-major order of Fig. 2,
/// whatever the schedule. After the walk (every near pair added), one
/// top-down gradient pass adds each far term's A-side correction into
/// the atom_s slots below its node, so node_s keeps one slot per node.
/// Concurrent calls must not share the output
/// spans. Counter updates are batched per task. `vector` and
/// `approx_math` pick the exact leaf×leaf arithmetic through the one
/// near-field selector (DESIGN.md §2.3): the kernel table of the resolved
/// ISA (`vector` is resolved internally, so callers may pass the raw
/// config value). Every width computes the same sums up to
/// floating-point reassociation. A non-null `recorder`
/// captures every near/far decision into an InteractionPlan *and keeps
/// the walk serial* (even under an active scheduler), so it sees the
/// owners one at a time.
void approx_integrals(const AtomsTree& ta, const QPointsTree& tq,
                      std::span<const std::uint32_t> q_leaf_ids,
                      double eps_born, bool approx_math,
                      std::span<double> node_s, std::span<double> atom_s,
                      perf::WorkCounters& counters,
                      bool strict_criterion = false,
                      // Unread (perfbench); ROADMAP item 1 deletes it.
                      KernelKind = KernelKind::Batched,
                      const simd::VectorParams& vector = {},
                      PlanRecorder* recorder = nullptr);

/// Finalize Born radii for atoms whose *tree position* lies in
/// [atom_begin, atom_end): descend T_A accumulating the ancestor prefix
/// s = Σ s_A′ and write R = max(r_vdw, ((s + s_a)/4π)^(−1/3)) into
/// `born_tree` (tree order). Subtrees entirely outside the segment are
/// skipped, matching the paper's per-process traversal cost of
/// O((1/P)(M log M)/p).
void push_integrals_to_atoms(const AtomsTree& ta,
                             std::span<const double> node_s,
                             std::span<const double> atom_s,
                             std::uint32_t atom_begin, std::uint32_t atom_end,
                             bool approx_math, std::span<double> born_tree,
                             perf::WorkCounters& counters);

/// One first-order far-field term: the contribution of a Q-aggregate
/// (weighted normal sum `wn` and symmetric normal moment `wm`, both about
/// its centroid `qc`) to the T_A node centered at `ac`. With δ = qc − ac
/// and r = |δ| it returns N·δ/r⁶ + tr S/r⁶ − 6 δᵀSδ/r⁸ (the Q side to
/// first order) and adds the A-side gradient −(N/r⁶ − 6(N·δ)δ/r⁸) of the
/// monopole into `grad`, which the gradient pass later spreads over the
/// node's atoms as grad·(x − ac) (DESIGN.md §2.6). Coincident centroids
/// (r² ≤ 1e-12, the same guard as the near kernels) contribute 0 and
/// leave `grad` untouched instead of producing a division-by-zero
/// infinity — unreachable through the admissibility criterion (far ⇒
/// d > 0) but reachable through direct calls and degenerate geometry.
/// Never inlined: the Born walk and the plan replay executor
/// (core/plan.hpp) must evaluate the *same machine code*, or
/// per-call-site FMA contraction could make replay differ from the
/// traversal in the last bit.
[[gnu::noinline]] double born_far_term(const geom::Vec3& ac,
                                       const geom::Vec3& qc,
                                       const geom::Vec3& wn,
                                       const NormalMoment& wm,
                                       bool approx_math, geom::Vec3& grad);

}  // namespace octgb::core
