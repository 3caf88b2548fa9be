#pragma once
/// \file trees.hpp
/// The two octrees of the algorithm (§II): T_A over atom centers with
/// per-atom charge/radius payloads, and T_Q over surface quadrature points
/// with per-point weighted normals and per-leaf weighted-normal moments
/// (the Born walk takes Q only at T_Q leaves, so internal T_Q nodes carry
/// none).
///
/// All payloads are stored in *tree order* (the octree's permuted point
/// order) so every node's data is contiguous — the cache-friendliness the
/// paper leans on. point_index() maps back to input order.

#include <span>
#include <vector>

#include "octgb/core/batch_kernels.hpp"
#include "octgb/mol/molecule.hpp"
#include "octgb/octree/octree.hpp"
#include "octgb/surface/surface.hpp"

namespace octgb::core {

/// Atoms octree T_A with payloads in tree order.
///
/// The SoA coordinate planes live inside the octree itself: the Morton
/// builder writes them during its sort scatter, so the node order *is*
/// the plane order and the former per-build gather here is gone
/// (DESIGN.md §2.9). soa_x()/y()/z() are views of those planes; any
/// node's atoms occupy the contiguous range [begin, end), so a leaf's SoA
/// batch for the batched kernels is just a set of subspans.
struct AtomsTree {
  octree::Octree tree;
  std::vector<double> charge;     ///< tree order
  std::vector<double> vdw_radius; ///< intrinsic radius, tree order

  /// Coordinate planes, tree order (owned and maintained by the octree
  /// across builds and refits).
  std::span<const double> soa_x() const { return tree.soa_x(); }
  std::span<const double> soa_y() const { return tree.soa_y(); }
  std::span<const double> soa_z() const { return tree.soa_z(); }

  /// Throws util::CheckError naming the input index of the first atom
  /// with a NaN or infinite charge, or a NaN, infinite or negative vdW
  /// radius (a zero radius is legal).
  static AtomsTree build(const mol::Molecule& mol,
                         const octree::BuildParams& params = {});

  /// Refit in place to moved coordinates (input order, same length as the
  /// original build): recompute node centroids/radii bottom-up *and*
  /// refresh the SoA coordinate planes, preserving topology so leaf
  /// batches stay contiguous. Charges/radii are untouched (the permutation
  /// does not change). See octree::RefitMonitor for the rebuild policy.
  void refit(std::span<const geom::Vec3> positions);

  std::size_t num_atoms() const { return charge.size(); }
  std::size_t footprint_bytes() const;

  /// SoA view of the atoms [begin, end) (tree order: one node, or a run
  /// of abutting leaves) for the GB pair kernel (KernelSet::epol_sum).
  /// The Born plane is supplied by the caller as a tree-order span: Born
  /// radii are produced per evaluation by PUSH-INTEGRALS-TO-ATOMS (each
  /// simulated rank holds its own `born_tree`), so passing that array
  /// *is* the refreshed Born plane — caching it in the shared tree would
  /// race across ranks.
  AtomBatch batch(std::uint32_t begin, std::uint32_t end,
                  std::span<const double> born_tree) const {
    const std::size_t n = end - begin;
    return AtomBatch{soa_x().subspan(begin, n), soa_y().subspan(begin, n),
                     soa_z().subspan(begin, n),
                     std::span<const double>(charge).subspan(begin, n),
                     born_tree.subspan(begin, n)};
  }
};

/// Symmetric part of a T_Q node's weighted normal moment about its
/// centroid c, S = sym Σ w (r − c) ⊗ n, as its six independent entries.
/// The Born far term reads only tr S and δᵀSδ, which the antisymmetric
/// part does not change (DESIGN.md §2.6).
struct NormalMoment {
  double xx = 0.0, yy = 0.0, zz = 0.0, xy = 0.0, xz = 0.0, yz = 0.0;
};

/// Fully symmetric part of a T_Q node's second weighted normal moment
/// about its centroid c, O = sym Σ w n ⊗ (r − c) ⊗ (r − c), as its ten
/// independent entries. The Born kernel's third derivative is fully
/// symmetric, so the second-order far term reads only this part
/// (DESIGN.md §2.6).
struct NormalMoment2 {
  double xxx = 0.0, yyy = 0.0, zzz = 0.0, xxy = 0.0, xxz = 0.0, xyy = 0.0,
         yyz = 0.0, xzz = 0.0, yzz = 0.0, xyz = 0.0;
};

/// Quadrature-points octree T_Q with payloads in tree order.
///
/// Coordinates (the octree's planes) and weighted normals are SoA planes in
/// tree order, the only copy of each, so each leaf's batch for
/// the Born kernel (KernelSet::born_integral) is a set of contiguous
/// subspans.
struct QPointsTree {
  octree::Octree tree;
  std::vector<double> soa_wnx, soa_wny, soa_wnz;  ///< w_q · n_q, tree order
  // The three per-leaf moment arrays are indexed by node id; entries of
  // internal nodes are zero and never read.

  /// Σ (w·n) over the points of each leaf: the monopole of the Born far
  /// term.
  std::vector<geom::Vec3> node_wnormal;
  /// Symmetric normal moment of each leaf about its centroid c: the
  /// first-order correction of the Born far term.
  std::vector<NormalMoment> node_wmoment;
  /// Fully symmetric second normal moment of each leaf about its
  /// centroid: the second-order correction.
  std::vector<NormalMoment2> node_wmoment2;

  /// Coordinate planes, tree order (owned by the octree; see AtomsTree).
  std::span<const double> soa_x() const { return tree.soa_x(); }
  std::span<const double> soa_y() const { return tree.soa_y(); }
  std::span<const double> soa_z() const { return tree.soa_z(); }

  static QPointsTree build(const surface::Surface& surf,
                           const octree::BuildParams& params = {});

  /// Refit in place to a moved surface with the same point count and input
  /// order (e.g. rigidly transformed quadrature points): recompute node
  /// centroids/radii, refresh the weighted-normal planes from `surf`, and
  /// rebuild the per-leaf moments — topology and leaf contiguity
  /// preserved.
  void refit(const surface::Surface& surf);

  /// Weighted normal w_q · n_q at tree position `pos`.
  geom::Vec3 wnormal(std::uint32_t pos) const {
    return {soa_wnx[pos], soa_wny[pos], soa_wnz[pos]};
  }

  std::size_t num_points() const { return tree.num_points(); }
  std::size_t footprint_bytes() const;

  /// SoA view of the quadrature points [begin, end) (tree order: one
  /// node, or a run of abutting leaves) for KernelSet::born_integral.
  QPointBatch batch(std::uint32_t begin, std::uint32_t end) const {
    const std::size_t n = end - begin;
    return QPointBatch{soa_x().subspan(begin, n),
                       soa_y().subspan(begin, n),
                       soa_z().subspan(begin, n),
                       std::span<const double>(soa_wnx).subspan(begin, n),
                       std::span<const double>(soa_wny).subspan(begin, n),
                       std::span<const double>(soa_wnz).subspan(begin, n)};
  }

 private:
  /// Fill the weighted-normal planes from `surf` through the tree's
  /// permutation (shared by build and refit).
  void assign_surface(const surface::Surface& surf);
  /// Recompute node_wnormal, node_wmoment and node_wmoment2 from the
  /// weighted-normal planes (after build or refit): leaves get their own
  /// points' sums, internal nodes zero.
  void rebuild_derived();
};

/// Stage-1 artifact of the evaluation pipeline: both octrees (with their
/// SoA planes) for one molecule + sampled surface. Immutable as far as the
/// evaluation stage is concerned — evaluations never write into it, so one
/// Preprocessed can back any number of evaluations at any approximation
/// parameters ("once an octree is built, it can be used for any
/// approximation parameter"), or be refitted for moved coordinates. It
/// lives in memory only: a new process rebuilds it.
struct Preprocessed {
  AtomsTree atoms;
  QPointsTree qpoints;

  static Preprocessed build(
      const mol::Molecule& mol, const surface::Surface& surf,
      const octree::BuildParams& atoms_params = {.max_leaf_size = 32},
      const octree::BuildParams& qpoints_params = {.max_leaf_size = 64});

  std::size_t footprint_bytes() const {
    return atoms.footprint_bytes() + qpoints.footprint_bytes();
  }
};

}  // namespace octgb::core
