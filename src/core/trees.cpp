#include "octgb/core/trees.hpp"

#include "octgb/trace/trace.hpp"
#include "octgb/util/check.hpp"

namespace octgb::core {

AtomsTree AtomsTree::build(const mol::Molecule& mol,
                           const octree::BuildParams& params) {
  OCTGB_SPAN("tree.build.atoms");
  AtomsTree t;
  const auto atoms = mol.atoms();
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

QPointsTree QPointsTree::build(const surface::Surface& surf,
                               const octree::BuildParams& params) {
  OCTGB_SPAN("tree.build.qpoints");
  QPointsTree t;
  t.tree = octree::Octree::build(surf.positions, params);
  t.wnormal.resize(surf.size());
  t.weight.resize(surf.size());
  t.assign_surface(surf);
  t.rebuild_derived();
  return t;
}

void QPointsTree::refit(const surface::Surface& surf) {
  OCTGB_SPAN("tree.refit.qpoints");
  OCTGB_CHECK_MSG(surf.size() == num_points(),
                  "surface point count changed; rebuild the QPointsTree");
  tree.refit(surf.positions);
  assign_surface(surf);
  rebuild_derived();
}

void QPointsTree::assign_surface(const surface::Surface& surf) {
  const auto idx = tree.point_index();
  for (std::size_t pos = 0; pos < idx.size(); ++pos) {
    const auto i = idx[pos];
    wnormal[pos] = surf.normals[i] * surf.weights[i];
    weight[pos] = surf.weights[i];
  }
}

void QPointsTree::rebuild_derived() {
  const auto nodes = tree.nodes();
  node_wnormal.resize(nodes.size());
  // Children come after parents in the flat array, so a reverse sweep can
  // aggregate bottom-up; leaves sum their own points.
  for (std::size_t id = nodes.size(); id-- > 0;) {
    const auto& n = nodes[id];
    geom::Vec3 s;
    if (n.is_leaf()) {
      for (std::uint32_t i = n.begin; i < n.end; ++i) s += wnormal[i];
    } else {
      for (std::uint8_t c = 0; c < n.child_count; ++c)
        s += node_wnormal[n.first_child + c];
    }
    node_wnormal[id] = s;
  }
  // Coordinate planes come straight from the octree (see AtomsTree); the
  // weighted-normal payload still splits into its own SoA planes here.
  soa_wnx.resize(wnormal.size());
  soa_wny.resize(wnormal.size());
  soa_wnz.resize(wnormal.size());
  split_soa(wnormal, soa_wnx, soa_wny, soa_wnz);
}

std::size_t QPointsTree::footprint_bytes() const {
  return tree.footprint_bytes() + wnormal.capacity() * sizeof(geom::Vec3) +
         weight.capacity() * sizeof(double) +
         node_wnormal.capacity() * sizeof(geom::Vec3) +
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
