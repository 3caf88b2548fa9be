#include "octgb/core/persist.hpp"

#include <cmath>
#include <fstream>

#include "octgb/octree/serialize.hpp"
#include "octgb/util/check.hpp"

namespace octgb::core {

namespace {

/// Throws CheckError naming section `tag` and element `i` unless `v` is
/// finite: a NaN charge, radius or normal would poison every energy that
/// reads it.
void check_finite(double v, const char* tag, std::size_t i) {
  OCTGB_CHECK_MSG(std::isfinite(v), "persist section '"
                                        << tag << "' element " << i
                                        << " is not finite (" << v << ")");
}

std::vector<double> read_finite_f64_section(std::istream& in,
                                            const char* tag) {
  std::vector<double> v = octree::read_f64_section(in, tag);
  for (std::size_t i = 0; i < v.size(); ++i) check_finite(v[i], tag, i);
  return v;
}

}  // namespace

void write_atoms_tree(const AtomsTree& t, std::ostream& out) {
  octree::write_octree(t.tree, out);
  octree::write_f64_section(out, "chg", t.charge);
  octree::write_f64_section(out, "vdw", t.vdw_radius);
}

AtomsTree read_atoms_tree(std::istream& in) {
  AtomsTree t;
  t.tree = octree::read_octree(in);
  t.charge = read_finite_f64_section(in, "chg");
  t.vdw_radius = read_finite_f64_section(in, "vdw");
  OCTGB_CHECK_MSG(t.charge.size() == t.tree.num_points() &&
                      t.vdw_radius.size() == t.tree.num_points(),
                  "atoms-tree payload sections disagree with the octree");
  return t;
}

void write_qpoints_tree(const QPointsTree& t, std::ostream& out) {
  octree::write_octree(t.tree, out);
  // The "wnrm" section stores AoS Vec3s; gather them from the planes.
  std::vector<geom::Vec3> wn(t.num_points());
  for (std::uint32_t i = 0; i < wn.size(); ++i) wn[i] = t.wnormal(i);
  octree::write_vec3_section(out, "wnrm", wn);
}

QPointsTree read_qpoints_tree(std::istream& in) {
  QPointsTree t;
  t.tree = octree::read_octree(in);
  const std::vector<geom::Vec3> wn = octree::read_vec3_section(in, "wnrm");
  OCTGB_CHECK_MSG(wn.size() == t.tree.num_points(),
                  "qpoints-tree payload sections disagree with the octree");
  t.soa_wnx.resize(wn.size());
  t.soa_wny.resize(wn.size());
  t.soa_wnz.resize(wn.size());
  for (std::size_t i = 0; i < wn.size(); ++i)
    for (const double c : {wn[i].x, wn[i].y, wn[i].z})
      check_finite(c, "wnrm", i);
  split_soa(wn, t.soa_wnx, t.soa_wny, t.soa_wnz);
  t.rebuild_derived();
  return t;
}

void write_preprocessed(const Preprocessed& pre, std::ostream& out) {
  write_atoms_tree(pre.atoms, out);
  write_qpoints_tree(pre.qpoints, out);
}

Preprocessed read_preprocessed(std::istream& in) {
  Preprocessed pre;
  pre.atoms = read_atoms_tree(in);
  pre.qpoints = read_qpoints_tree(in);
  return pre;
}

void write_preprocessed_file(const Preprocessed& pre,
                             const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  OCTGB_CHECK_MSG(static_cast<bool>(f), "cannot open " << path);
  write_preprocessed(pre, f);
}

Preprocessed read_preprocessed_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  OCTGB_CHECK_MSG(static_cast<bool>(f), "cannot open " << path);
  return read_preprocessed(f);
}

}  // namespace octgb::core
