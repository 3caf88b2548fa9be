#pragma once
/// \file epol.hpp
/// The paper's Fig. 3 kernel: APPROX-EPOL. Every T_A leaf V interacts with
/// the whole tree; far node pairs are approximated through *Born-radius
/// binning* — each node U carries q_U[k], the total charge of its atoms
/// whose Born radius falls in the geometric bin
/// [Rmin(1+ε)^k, Rmin(1+ε)^(k+1)), and a far (U,V) pair contributes one
/// f_GB evaluation per non-empty bin pair instead of one per atom pair.
/// Each bin also carries moments of its charges' offsets from the node
/// centroid and of their Born radii up to second order (the dipole and
/// quadrupole, Σq·R, Σq·R² and Σq·R·(x − c)), which make the bin-pair
/// term second order in both the atom positions and the radii
/// (DESIGN.md §2.1).
///
/// All three entry points, the force pass and the near-set collector run
/// one descent (DESIGN.md §2.14). approx_epol mirrors the near field: an
/// exact leaf pair (U, V) that both leaves' descents reach is evaluated
/// once, from one side, weighted ×2 (DESIGN.md §2.12). The atom-based
/// variant keeps the paper's plain descent and doubles as the unmirrored
/// reference.
///
/// Also provides the atom-based work division variant (§IV): a leaf that
/// a segment boundary splits descends atom by atom, each atom a V side
/// of radius 0 at its own position. Its admissibility decisions then
/// depend on the segment boundaries, so the error drifts with P — the
/// effect the paper reports and bench_workdiv reproduces.

#include <cstdint>
#include <span>
#include <vector>

#include "octgb/core/batch_kernels.hpp"
#include "octgb/core/gb_params.hpp"
#include "octgb/core/trees.hpp"
#include "octgb/perf/counters.hpp"
#include "octgb/simd/types.hpp"

namespace octgb::core {

/// Per-node moments-by-Born-radius-bin table, built once per energy
/// evaluation (Born radii must already be known). The table is compact:
/// node `id` stores only its n = bin_hi − bin_lo + 1 bins [bin_lo,
/// bin_hi], as one block of BinMoments::kPlanes planes of n cells each
/// (BinMoments in core/batch_kernels.hpp names them). Most nodes are
/// leaves whose atoms span a few of the M bins, so this is about a
/// quarter of a dense [node][bin] layout.
struct EpolContext {
  double rmin = 1.0;          ///< minimum Born radius over all atoms
  double log1pe = 1.0;        ///< log(1+ε)
  int nbins = 1;              ///< M = ⌈log_{1+ε}(Rmax/Rmin)⌉
  /// Every node's moment block, node `id`'s at kPlanes·bin_off[id], plane
  /// p of its bin lo + i at kPlanes·bin_off[id] + p·n + i. Plane 0 is the
  /// charge sum Q, so the root's first nbins cells are its charge by bin.
  std::vector<double> bins;
  /// Inclusive bin range per node: the bins its atoms' radii fall in.
  std::vector<std::int16_t> bin_lo, bin_hi;
  /// Cells before each node's range: the sum of the range lengths of the
  /// nodes with smaller ids.
  std::vector<std::size_t> bin_off;
  /// Representative radius per bin: the geometric mid-bin Rmin(1+ε)^(k+½)
  /// (the paper's Fig. 3 uses the lower edge Rmin(1+ε)^k).
  std::vector<double> rep;

  /// Bin index of a Born radius.
  int bin_of(double born) const;

  /// Node `id`'s moment block, as the far-field kernels read it.
  BinMoments moments(std::size_t id) const;

  std::size_t footprint_bytes() const;

  /// Build from Born radii in tree order.
  static EpolContext build(const AtomsTree& ta,
                           std::span<const double> born_tree, double eps_epol);

  /// In-place rebuild reusing this context's allocated storage (the warm
  /// path of GBEngine::compute(EvalScratch&)). Returns true when any
  /// buffer's capacity had to grow — i.e. an allocation happened; repeated
  /// rebuilds for the same tree shape return false. Throws
  /// util::CheckError when a Born radius is not finite and positive
  /// (naming its tree index and value), or when the bin count would
  /// exceed INT16_MAX (ε too small for the Born-radius range).
  bool rebuild(const AtomsTree& ta, std::span<const double> born_tree,
               double eps_epol);
};

/// Node-based division: energy from the interaction of every atom under
/// the given T_A leaves (the "V" side) with the entire tree, with the
/// same near/far decisions as the paper's descent. A mutual exact leaf
/// pair — U's descent would reach V as V's reaches U — is evaluated only
/// by the leaf the parity rule picks, at twice the weight; the other
/// leaf skips it. The result is therefore exact only when summed over a
/// **partition of all leaves**, which yields the full ordered-pair sum of
/// Eq. 2, diagonal included; the partial of a single segment is not its
/// leaves' share. `epol_exact` counts ordered pairs covered (the owner
/// adds 2·|U|·|V|), so counter totals over a partition are unchanged.
/// Thread-safe; parallelizes over fixed blocks of leaves and folds the
/// block sums in block order, so the result is bitwise identical at any
/// worker count (and serially). `vector` and `approx_math` pick the
/// arithmetic of the exact leaf×leaf sum and the node-path bin-pair far
/// field through the one near-field selector (DESIGN.md §2.3): the kernel
/// table of the resolved ISA (`vector` is resolved internally, callers
/// pass the raw config value). The same applies to the two entry points
/// below.
double approx_epol(const AtomsTree& ta, const EpolContext& ctx,
                   std::span<const double> born_tree,
                   std::span<const std::uint32_t> v_leaf_ids, double eps_epol,
                   bool approx_math, const GBParams& gb,
                   perf::WorkCounters& counters,
                   // Unread (perfbench); ROADMAP item 1 deletes it.
                   KernelKind = KernelKind::Batched,
                   const simd::VectorParams& vector = {});

/// Atom-based division: energy from the interaction of atoms in tree
/// positions [atom_begin, atom_end) with the entire tree. A leaf wholly
/// inside the range descends as a leaf; the atoms of a leaf the range
/// splits descend one by one. Plain descent, no mirroring: over [0, n) it
/// evaluates approx_epol's interaction set from both sides, which makes
/// it the unmirrored test reference.
double approx_epol_atom_based(const AtomsTree& ta, const EpolContext& ctx,
                              std::span<const double> born_tree,
                              std::uint32_t atom_begin, std::uint32_t atom_end,
                              double eps_epol, bool approx_math,
                              const GBParams& gb,
                              perf::WorkCounters& counters,
                              const simd::VectorParams& vector = {});

/// Cross-tree energy between two *disjoint* atom sets, each with its own
/// octree, Born radii, and bin table: every leaf of `tb` (the "V" side —
/// typically the small, moving body) interacts with the whole of `ta`,
/// with the same near/far admissibility and Born-radius binning as
/// approx_epol. Returns −τ Σ_{i∈A, j∈B} q_i q_j / f_GB — the factor 2
/// relative to approx_epol's −τ/2 accounts for Eq. 2's ordered-pair
/// convention counting every unordered A–B pair twice; there is no
/// diagonal because the sets are disjoint.
///
/// This is the per-pose kernel of ScoringSession's CrossScreen mode, where
/// `tb` is refit to each pose while `ctx_b` stays as built at the base
/// coordinates. The bin layout and the charge and Born-radius sums depend
/// only on topology and radii, but the moments about the leaf centroid
/// (P, U, Θ) turn with the body, so each V leaf's moments are recomputed
/// from `tb`'s current points:
/// exactly what `ctx_b` would hold if rebuilt on `tb` as it is now.
/// `ctx_a` is read as it is and must match `ta`'s current geometry.
double approx_epol_cross(const AtomsTree& ta, const EpolContext& ctx_a,
                         std::span<const double> born_a, const AtomsTree& tb,
                         const EpolContext& ctx_b,
                         std::span<const double> born_b, double eps_epol,
                         bool approx_math, const GBParams& gb,
                         perf::WorkCounters& counters,
                         // Unread (perfbench); ROADMAP item 1 deletes it.
                         KernelKind = KernelKind::Batched,
                         const simd::VectorParams& vector = {});

}  // namespace octgb::core
