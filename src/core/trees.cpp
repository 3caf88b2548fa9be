#include "octgb/core/trees.hpp"

#include <cmath>

#include "octgb/trace/trace.hpp"
#include "octgb/util/check.hpp"

namespace octgb::core {

AtomsTree AtomsTree::build(const mol::Molecule& mol,
                           const octree::BuildParams& params) {
  OCTGB_SPAN("tree.build.atoms");
  AtomsTree t;
  const auto atoms = mol.atoms();
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    OCTGB_CHECK_MSG(std::isfinite(atoms[i].charge),
                    "AtomsTree::build: atom " << i
                                              << " has a non-finite charge "
                                              << atoms[i].charge);
    OCTGB_CHECK_MSG(std::isfinite(atoms[i].radius) && atoms[i].radius >= 0.0,
                    "AtomsTree::build: atom "
                        << i << " has a non-finite or negative vdw radius "
                        << atoms[i].radius);
  }
  std::vector<geom::Vec3> centers(atoms.size());
  for (std::size_t i = 0; i < atoms.size(); ++i) centers[i] = atoms[i].pos;
  t.tree = octree::Octree::build(centers, params);
  const auto idx = t.tree.point_index();
  t.charge.resize(atoms.size());
  t.vdw_radius.resize(atoms.size());
  for (std::size_t pos = 0; pos < idx.size(); ++pos) {
    t.charge[pos] = atoms[idx[pos]].charge;
    t.vdw_radius[pos] = atoms[idx[pos]].radius;
  }
  return t;
}

void AtomsTree::refit(std::span<const geom::Vec3> positions) {
  OCTGB_SPAN("tree.refit.atoms");
  tree.refit(positions);
}

std::size_t AtomsTree::footprint_bytes() const {
  return tree.footprint_bytes() + charge.capacity() * sizeof(double) +
         vdw_radius.capacity() * sizeof(double);
}

namespace {

/// Reject a surface whose per-point payload is short or non-finite: one
/// NaN weight would otherwise spread through the far terms to every Born
/// radius. Positions are checked by Octree::build and Octree::refit.
void check_surface_payload(const surface::Surface& surf, const char* where) {
  OCTGB_CHECK_MSG(surf.normals.size() == surf.size() &&
                      surf.weights.size() == surf.size(),
                  where << ": " << surf.size() << " points but "
                        << surf.normals.size() << " normals and "
                        << surf.weights.size() << " weights");
  for (std::size_t i = 0; i < surf.size(); ++i) {
    OCTGB_CHECK_MSG(std::isfinite(surf.weights[i]),
                    where << ": point " << i << " has a non-finite weight "
                          << surf.weights[i]);
    const geom::Vec3& n = surf.normals[i];
    OCTGB_CHECK_MSG(
        std::isfinite(n.x) && std::isfinite(n.y) && std::isfinite(n.z),
        where << ": point " << i << " has a non-finite normal (" << n.x
              << ", " << n.y << ", " << n.z << ")");
  }
}

}  // namespace

QPointsTree QPointsTree::build(const surface::Surface& surf,
                               const octree::BuildParams& params) {
  OCTGB_SPAN("tree.build.qpoints");
  check_surface_payload(surf, "QPointsTree::build");
  QPointsTree t;
  t.tree = octree::Octree::build(surf.positions, params);
  t.assign_surface(surf);
  t.rebuild_derived();
  return t;
}

void QPointsTree::refit(const surface::Surface& surf) {
  OCTGB_SPAN("tree.refit.qpoints");
  OCTGB_CHECK_MSG(surf.size() == num_points(),
                  "surface point count changed; rebuild the QPointsTree");
  check_surface_payload(surf, "QPointsTree::refit");
  tree.refit(surf.positions);
  assign_surface(surf);
  rebuild_derived();
}

void QPointsTree::assign_surface(const surface::Surface& surf) {
  const auto idx = tree.point_index();
  soa_wnx.resize(idx.size());
  soa_wny.resize(idx.size());
  soa_wnz.resize(idx.size());
  for (std::size_t pos = 0; pos < idx.size(); ++pos) {
    const auto i = idx[pos];
    const geom::Vec3 wn = surf.normals[i] * surf.weights[i];
    soa_wnx[pos] = wn.x;
    soa_wny[pos] = wn.y;
    soa_wnz[pos] = wn.z;
  }
}

namespace {

/// m += sym(u ⊗ n).
void add_sym(NormalMoment& m, const geom::Vec3& u, const geom::Vec3& n) {
  m.xx += u.x * n.x;
  m.yy += u.y * n.y;
  m.zz += u.z * n.z;
  m.xy += 0.5 * (u.x * n.y + u.y * n.x);
  m.xz += 0.5 * (u.x * n.z + u.z * n.x);
  m.yz += 0.5 * (u.y * n.z + u.z * n.y);
}

/// o += sym(n ⊗ u ⊗ u), the full symmetrization over all three indices.
void add_sym3(NormalMoment2& o, const geom::Vec3& n, const geom::Vec3& u) {
  constexpr double third = 1.0 / 3.0;
  o.xxx += n.x * u.x * u.x;
  o.yyy += n.y * u.y * u.y;
  o.zzz += n.z * u.z * u.z;
  o.xxy += third * (2.0 * n.x * u.x * u.y + n.y * u.x * u.x);
  o.xxz += third * (2.0 * n.x * u.x * u.z + n.z * u.x * u.x);
  o.xyy += third * (n.x * u.y * u.y + 2.0 * n.y * u.x * u.y);
  o.yyz += third * (2.0 * n.y * u.y * u.z + n.z * u.y * u.y);
  o.xzz += third * (n.x * u.z * u.z + 2.0 * n.z * u.x * u.z);
  o.yzz += third * (n.y * u.z * u.z + 2.0 * n.z * u.y * u.z);
  o.xyz += third * (n.x * u.y * u.z + n.y * u.x * u.z + n.z * u.x * u.y);
}

}  // namespace

void QPointsTree::rebuild_derived() {
  const std::size_t n_nodes = tree.nodes().size();
  node_wnormal.assign(n_nodes, {});
  node_wmoment.assign(n_nodes, {});
  node_wmoment2.assign(n_nodes, {});
  // The Born walk takes Q only at leaves, so only leaves carry moments:
  // their own points' sums about the leaf centroid.
  for (const std::uint32_t id : tree.leaf_ids()) {
    const auto& n = tree.node(id);
    geom::Vec3& s = node_wnormal[id];
    NormalMoment& m = node_wmoment[id];
    NormalMoment2& o = node_wmoment2[id];
    for (std::uint32_t i = n.begin; i < n.end; ++i) {
      const geom::Vec3 wn = wnormal(i);
      const geom::Vec3 u = tree.point(i) - n.centroid;
      s += wn;
      add_sym(m, u, wn);
      add_sym3(o, wn, u);
    }
  }
}

std::size_t QPointsTree::footprint_bytes() const {
  return tree.footprint_bytes() +
         node_wnormal.capacity() * sizeof(geom::Vec3) +
         node_wmoment.capacity() * sizeof(NormalMoment) +
         node_wmoment2.capacity() * sizeof(NormalMoment2) +
         (soa_wnx.capacity() + soa_wny.capacity() + soa_wnz.capacity()) *
             sizeof(double);
}

Preprocessed Preprocessed::build(const mol::Molecule& mol,
                                 const surface::Surface& surf,
                                 const octree::BuildParams& atoms_params,
                                 const octree::BuildParams& qpoints_params) {
  OCTGB_SPAN("tree.build.preprocessed");
  Preprocessed pre;
  pre.atoms = AtomsTree::build(mol, atoms_params);
  pre.qpoints = QPointsTree::build(surf, qpoints_params);
  return pre;
}

}  // namespace octgb::core
