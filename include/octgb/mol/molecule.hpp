#pragma once
/// \file molecule.hpp
/// Atom and Molecule — the input to every energy engine.

#include <span>
#include <string>
#include <vector>

#include "octgb/geom/aabb.hpp"
#include "octgb/geom/transform.hpp"
#include "octgb/geom/vec3.hpp"
#include "octgb/mol/elements.hpp"

namespace octgb::mol {

/// One atom: position (Å), intrinsic (vdW) radius (Å), partial charge (e).
/// Kept POD and compact — energy kernels iterate contiguous Atom arrays.
struct Atom {
  geom::Vec3 pos;
  double radius = 1.7;
  double charge = 0.0;
  Element element = Element::C;
};

/// PDB-style per-atom metadata, kept out of the hot Atom struct.
struct AtomLabel {
  std::string atom_name;     ///< e.g. " CA "
  std::string residue_name;  ///< e.g. "ALA"
  char chain_id = 'A';
  int residue_seq = 1;
  int serial = 1;
};

/// A molecule: parallel arrays of atoms and (optional) labels.
class Molecule {
 public:
  Molecule() = default;
  explicit Molecule(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  std::size_t size() const { return atoms_.size(); }
  bool empty() const { return atoms_.empty(); }

  std::span<const Atom> atoms() const { return atoms_; }
  std::span<Atom> atoms() { return atoms_; }
  const Atom& atom(std::size_t i) const { return atoms_[i]; }

  /// Labels are either empty or exactly parallel to atoms().
  std::span<const AtomLabel> labels() const { return labels_; }

  /// Append an atom without a label. Mixing labeled and unlabeled appends
  /// is rejected.
  void add_atom(const Atom& a);
  /// Append an atom with its PDB label.
  void add_atom(const Atom& a, AtomLabel label);

  /// Axis-aligned bounds of atom centers.
  geom::Aabb bounds() const;
  /// Bounds inflated by each atom's radius (true extent of the molecule).
  geom::Aabb inflated_bounds() const;

  /// Sum of partial charges.
  double net_charge() const;
  /// Center of geometry (unweighted mean of atom centers).
  geom::Vec3 centroid() const;

  /// Apply a rigid transform to every atom position in place (the docking
  /// use case: move the ligand without regenerating it).
  void transform(const geom::RigidTransform& t);

  /// Bytes of memory this molecule occupies (for the replication
  /// accounting of §V-B).
  std::size_t footprint_bytes() const;

  void reserve(std::size_t n) { atoms_.reserve(n); }

 private:
  std::string name_;
  std::vector<Atom> atoms_;
  std::vector<AtomLabel> labels_;
};

}  // namespace octgb::mol
