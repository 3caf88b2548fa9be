#include "octgb/core/persist.hpp"

#include <fstream>

#include "octgb/octree/serialize.hpp"
#include "octgb/util/check.hpp"

namespace octgb::core {

void write_atoms_tree(const AtomsTree& t, std::ostream& out) {
  octree::write_octree(t.tree, out);
  octree::write_f64_section(out, "chg", t.charge);
  octree::write_f64_section(out, "vdw", t.vdw_radius);
}

AtomsTree read_atoms_tree(std::istream& in) {
  AtomsTree t;
  t.tree = octree::read_octree(in);
  t.charge = octree::read_f64_section(in, "chg");
  t.vdw_radius = octree::read_f64_section(in, "vdw");
  OCTGB_CHECK_MSG(t.charge.size() == t.tree.num_points() &&
                      t.vdw_radius.size() == t.tree.num_points(),
                  "atoms-tree payload sections disagree with the octree");
  return t;
}

void write_qpoints_tree(const QPointsTree& t, std::ostream& out) {
  octree::write_octree(t.tree, out);
  octree::write_vec3_section(out, "wnrm", t.wnormal);
  octree::write_f64_section(out, "wgt", t.weight);
}

QPointsTree read_qpoints_tree(std::istream& in) {
  QPointsTree t;
  t.tree = octree::read_octree(in);
  t.wnormal = octree::read_vec3_section(in, "wnrm");
  t.weight = octree::read_f64_section(in, "wgt");
  OCTGB_CHECK_MSG(t.wnormal.size() == t.tree.num_points() &&
                      t.weight.size() == t.tree.num_points(),
                  "qpoints-tree payload sections disagree with the octree");
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
