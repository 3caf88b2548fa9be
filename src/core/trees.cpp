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

QPointsTree QPointsTree::build(const surface::Surface& surf,
                               const octree::BuildParams& params) {
  OCTGB_SPAN("tree.build.qpoints");
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

/// o += 2 sym(m ⊗ s) for a symmetric m: the cross term of shifting a
/// second moment by s (Σ n ⊗ u ⊗ s + n ⊗ s ⊗ u, whose full symmetrization
/// reads only the symmetric part of Σ n ⊗ u).
void add_sym3_cross(NormalMoment2& o, const NormalMoment& m,
                    const geom::Vec3& s) {
  constexpr double two_thirds = 2.0 / 3.0;
  o.xxx += 2.0 * m.xx * s.x;
  o.yyy += 2.0 * m.yy * s.y;
  o.zzz += 2.0 * m.zz * s.z;
  o.xxy += two_thirds * (m.xx * s.y + 2.0 * m.xy * s.x);
  o.xxz += two_thirds * (m.xx * s.z + 2.0 * m.xz * s.x);
  o.xyy += two_thirds * (m.yy * s.x + 2.0 * m.xy * s.y);
  o.yyz += two_thirds * (m.yy * s.z + 2.0 * m.yz * s.y);
  o.xzz += two_thirds * (m.zz * s.x + 2.0 * m.xz * s.z);
  o.yzz += two_thirds * (m.zz * s.y + 2.0 * m.yz * s.z);
  o.xyz += two_thirds * (m.xy * s.z + m.xz * s.y + m.yz * s.x);
}

}  // namespace

void QPointsTree::rebuild_derived() {
  const auto nodes = tree.nodes();
  node_wnormal.resize(nodes.size());
  node_wmoment.resize(nodes.size());
  node_wmoment2.resize(nodes.size());
  // Children come after parents in the flat array, so a reverse sweep can
  // aggregate bottom-up; leaves sum their own points, parents shift each
  // child's moments to their own centroid (parallel axis: with the child's
  // points at u + s, s = c_child − c_parent, the first moment gains
  // sym(s ⊗ N) and the second 2 sym(S ⊗ s) + sym(N ⊗ s ⊗ s), N and S the
  // child's own).
  for (std::size_t id = nodes.size(); id-- > 0;) {
    const auto& n = nodes[id];
    geom::Vec3 s;
    NormalMoment m;
    NormalMoment2 o;
    if (n.is_leaf()) {
      for (std::uint32_t i = n.begin; i < n.end; ++i) {
        const geom::Vec3 wn = wnormal(i);
        const geom::Vec3 u = tree.point(i) - n.centroid;
        s += wn;
        add_sym(m, u, wn);
        add_sym3(o, wn, u);
      }
    } else {
      for (std::uint8_t c = 0; c < n.child_count; ++c) {
        const std::uint32_t child = n.first_child + c;
        const geom::Vec3& nc = node_wnormal[child];
        const NormalMoment& mc = node_wmoment[child];
        const NormalMoment2& oc = node_wmoment2[child];
        const geom::Vec3 shift = nodes[child].centroid - n.centroid;
        s += nc;
        m.xx += mc.xx;
        m.yy += mc.yy;
        m.zz += mc.zz;
        m.xy += mc.xy;
        m.xz += mc.xz;
        m.yz += mc.yz;
        add_sym(m, shift, nc);
        o.xxx += oc.xxx;
        o.yyy += oc.yyy;
        o.zzz += oc.zzz;
        o.xxy += oc.xxy;
        o.xxz += oc.xxz;
        o.xyy += oc.xyy;
        o.yyz += oc.yyz;
        o.xzz += oc.xzz;
        o.yzz += oc.yzz;
        o.xyz += oc.xyz;
        add_sym3_cross(o, mc, shift);
        add_sym3(o, nc, shift);
      }
    }
    node_wnormal[id] = s;
    node_wmoment[id] = m;
    node_wmoment2[id] = o;
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
