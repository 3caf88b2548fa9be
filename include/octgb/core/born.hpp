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
/// node, in serial Q-major order, and the far terms' A-side expansions
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

/// The A-side part of a T_A node's far terms, as a Taylor expansion about
/// the node's centroid c_A: gradient `g` and the six entries of the
/// symmetric Hessian. Atom x receives g·a + ½ aᵀHa with a = x − c_A
/// (the value at c_A itself goes into node_s). Per-evaluation scratch,
/// one per T_A node, summed by the node's owner in decision order and
/// handed down by the gradient pass (DESIGN.md §2.6).
struct FarExpansion {
  geom::Vec3 g;
  double hxx = 0.0, hyy = 0.0, hzz = 0.0, hxy = 0.0, hxz = 0.0, hyz = 0.0;
};

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
/// owners one at a time. `far` is the far-expansion scratch, one entry
/// per T_A node, overwritten (an EvalScratch's keeps warm evaluations
/// from allocating); empty, the call allocates its own. Throws
/// util::CheckError naming the first id of `q_leaf_ids` that is not a
/// T_Q leaf (only leaves carry the moments the far term reads).
void approx_integrals(const AtomsTree& ta, const QPointsTree& tq,
                      std::span<const std::uint32_t> q_leaf_ids,
                      double eps_born, bool approx_math,
                      std::span<double> node_s, std::span<double> atom_s,
                      perf::WorkCounters& counters,
                      bool strict_criterion = false,
                      // Unread (perfbench); ROADMAP item 1 deletes it.
                      KernelKind = KernelKind::Batched,
                      const simd::VectorParams& vector = {},
                      PlanRecorder* recorder = nullptr,
                      std::span<FarExpansion> far = {});

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

/// One second-order far-field term: the contribution of a Q-aggregate
/// (weighted normal sum `wn`, symmetric normal moment `wm` and fully
/// symmetric second moment `wm2`, all about its centroid `qc`) to the
/// T_A node centered at `ac`. The kernel w n·(r − x)/|r − x|⁶ is the
/// gradient of φ = −¼|r − x|⁻⁴, so with δ = qc − ac, r = |δ| and the
/// derivative tensors of φ at δ the term is the Taylor series of
/// Σ w n·∇φ(δ + u − a) to second order in the Q offset u and the atom
/// offset a together. It returns the value at ac,
///   (N·δ + tr S)/r⁶ − 6 δᵀSδ/r⁸ − 9 t·δ/r⁸ + 24 O(δ,δ,δ)/r¹⁰
/// (t the trace vector O_iik), and adds the A-side expansion into `far`:
/// the monopole's gradient −(N/r⁶ − 6(N·δ)δ/r⁸) plus the S×a cross term
/// 6(tr S δ + 2Sδ)/r⁸ − 48(δᵀSδ)δ/r¹⁰, and the monopole's Hessian
/// −6(N⊗δ + δ⊗N + (N·δ)I)/r⁸ + 48(N·δ)δ⊗δ/r¹⁰. The gradient pass
/// spreads them over the node's atoms (DESIGN.md §2.6). Coincident
/// centroids (r² ≤ 1e-12, the same guard as the near kernels) contribute
/// 0 and leave `far` untouched instead of producing a division-by-zero
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
                                       const NormalMoment2& wm2,
                                       bool approx_math, FarExpansion& far);

}  // namespace octgb::core
