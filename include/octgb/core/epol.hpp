#pragma once
/// \file epol.hpp
/// The paper's Fig. 3 kernel: APPROX-EPOL. Every T_A leaf V interacts with
/// the whole tree; far node pairs are approximated through *Born-radius
/// binning* — each node U carries q_U[k], the total charge of its atoms
/// whose Born radius falls in the geometric bin
/// [Rmin(1+ε)^k, Rmin(1+ε)^(k+1)), and a far (U,V) pair contributes one
/// f_GB evaluation per non-empty bin pair instead of one per atom pair.
///
/// Also provides the atom-based work division variant (§IV): dividing
/// *atoms* instead of leaves makes the admissibility decisions depend on
/// the segment boundaries, so the error drifts with P — the effect the
/// paper reports and bench_workdiv reproduces.

#include <cstdint>
#include <span>
#include <vector>

#include "octgb/core/gb_params.hpp"
#include "octgb/core/trees.hpp"
#include "octgb/perf/counters.hpp"
#include "octgb/simd/types.hpp"

namespace octgb::core {

/// Per-node charge-by-Born-radius-bin table, built once per energy
/// evaluation (Born radii must already be known).
struct EpolContext {
  double rmin = 1.0;          ///< minimum Born radius over all atoms
  double log1pe = 1.0;        ///< log(1+ε)
  int nbins = 1;              ///< M = ⌈log_{1+ε}(Rmax/Rmin)⌉
  /// Flattened [node][bin] charge sums.
  std::vector<double> bins;
  /// Inclusive nonzero-bin range per node (skip empty bins in the M² loop).
  std::vector<std::int16_t> bin_lo, bin_hi;
  /// Representative radius per bin: Rmin(1+ε)^k (the paper's choice).
  std::vector<double> rep;

  /// Bin index of a Born radius.
  int bin_of(double born) const;

  std::size_t footprint_bytes() const;

  /// Build from Born radii in tree order.
  static EpolContext build(const AtomsTree& ta,
                           std::span<const double> born_tree, double eps_epol);

  /// In-place rebuild reusing this context's allocated storage (the warm
  /// path of GBEngine::compute(EvalScratch&)). Returns true when any
  /// buffer's capacity had to grow — i.e. an allocation happened; repeated
  /// rebuilds for the same tree shape return false.
  bool rebuild(const AtomsTree& ta, std::span<const double> born_tree,
               double eps_epol);
};

/// Node-based division: energy from the interaction of every atom under
/// the given T_A leaves (the "V" side) with the entire tree. Summing over
/// a partition of all leaves yields the full ordered-pair sum of Eq. 2,
/// diagonal included. Thread-safe; parallelizes over fixed blocks of
/// leaves and folds the block sums in block order, so the result is
/// bitwise identical at any worker count (and serially). `kernel`
/// selects the exact leaf×leaf implementation (SoA batch vs scalar AoS);
/// `vector` additionally routes the Batched near field and the node-path
/// bin-pair far field through the explicit-SIMD kernels
/// (simd/dispatch.hpp) — resolved internally, callers pass the raw
/// config value.
double approx_epol(const AtomsTree& ta, const EpolContext& ctx,
                   std::span<const double> born_tree,
                   std::span<const std::uint32_t> v_leaf_ids, double eps_epol,
                   bool approx_math, const GBParams& gb,
                   perf::WorkCounters& counters,
                   KernelKind kernel = KernelKind::Batched,
                   const simd::VectorParams& vector = {});

/// Atom-based division: energy from the interaction of atoms in tree
/// positions [atom_begin, atom_end) with the entire tree.
double approx_epol_atom_based(const AtomsTree& ta, const EpolContext& ctx,
                              std::span<const double> born_tree,
                              std::uint32_t atom_begin, std::uint32_t atom_end,
                              double eps_epol, bool approx_math,
                              const GBParams& gb,
                              perf::WorkCounters& counters,
                              KernelKind kernel = KernelKind::Batched,
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
/// This is the per-pose kernel of ScoringSession's CrossScreen mode: both
/// bin tables depend only on topology + radii (not positions), so they
/// survive rigid refits of either tree unchanged.
double approx_epol_cross(const AtomsTree& ta, const EpolContext& ctx_a,
                         std::span<const double> born_a, const AtomsTree& tb,
                         const EpolContext& ctx_b,
                         std::span<const double> born_b, double eps_epol,
                         bool approx_math, const GBParams& gb,
                         perf::WorkCounters& counters,
                         KernelKind kernel = KernelKind::Batched,
                         const simd::VectorParams& vector = {});

}  // namespace octgb::core
