#include "octgb/mol/pdb.hpp"

#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "octgb/util/check.hpp"
#include "octgb/util/strings.hpp"

namespace octgb::mol {

namespace {

/// Extract a fixed-width column range [begin, end) (0-based) from a PDB
/// line, tolerating short lines.
std::string_view column(std::string_view line, std::size_t begin,
                        std::size_t end) {
  if (line.size() <= begin) return {};
  return line.substr(begin, std::min(end, line.size()) - begin);
}

// PDB records are 80 columns; anything dramatically longer is not a PDB
// line (binary junk, a mis-saved file) and parsing it column-wise would
// produce silent nonsense.
constexpr std::size_t kMaxPdbLine = 512;

/// Parse a mandatory coordinate column; blank, non-numeric and
/// non-finite (nan / inf, which strtod accepts) fields are hard errors
/// naming the line, not silent zeros or poisoned geometry.
double parse_coord(std::string_view field, char axis, int line_no) {
  if (util::trim(field).empty())
    throw PdbParseError(util::format(
        "PDB line %d: blank %c-coordinate field", line_no, axis));
  double v = 0.0;
  try {
    v = util::parse_double_field(field, 0.0);
  } catch (const util::CheckError&) {
    throw PdbParseError(util::format(
        "PDB line %d: non-numeric %c-coordinate field '%.*s'", line_no,
        axis, static_cast<int>(field.size()), field.data()));
  }
  if (!std::isfinite(v))
    throw PdbParseError(util::format(
        "PDB line %d: non-finite %c-coordinate field '%.*s'", line_no, axis,
        static_cast<int>(field.size()), field.data()));
  return v;
}

}  // namespace

double protein_partial_charge(std::string_view atom_name,
                              std::string_view residue_name) {
  const std::string a = util::to_upper(util::trim(atom_name));
  const std::string r = util::to_upper(util::trim(residue_name));
  // Backbone (CHARMM-like coarse values; sums per residue are integral
  // when combined with the side-chain entries below).
  if (a == "N") return -0.47;
  if (a == "HN" || a == "H") return 0.31;
  if (a == "CA") return 0.07;
  if (a == "HA") return 0.09;
  if (a == "C") return 0.51;
  if (a == "O") return -0.51;
  if (a == "OXT") return -0.67;
  // Charged side chains.
  if (r == "LYS") {
    if (a == "NZ") return -0.30;
    if (a == "HZ1" || a == "HZ2" || a == "HZ3") return 0.33;
    if (a == "CE") return 0.21;
    if (a == "CB" || a == "CG" || a == "CD") return 0.02;
    if (a.starts_with("H")) return 0.03;
  }
  if (r == "ARG") {
    if (a == "CZ") return 0.64;
    if (a == "NH1" || a == "NH2") return -0.80;
    if (a.starts_with("HH")) return 0.46;
    if (a == "NE") return -0.70;
    if (a == "HE") return 0.44;
    if (a.starts_with("H")) return 0.05;
  }
  if (r == "ASP") {
    if (a == "CG") return 0.62;
    if (a == "OD1" || a == "OD2") return -0.76;
    if (a == "CB") return -0.28;
    if (a.starts_with("H")) return 0.09;
  }
  if (r == "GLU") {
    if (a == "CD") return 0.62;
    if (a == "OE1" || a == "OE2") return -0.76;
    if (a == "CG") return -0.28;
    if (a.starts_with("H")) return 0.09;
  }
  if (r == "HIS" || r == "HSD") {
    if (a == "ND1" || a == "NE2") return -0.36;
    if (a.starts_with("HD") || a.starts_with("HE")) return 0.32;
    if (a == "CE1" || a == "CD2" || a == "CG") return 0.10;
  }
  if (r == "SER" || r == "THR") {
    if (a == "OG" || a == "OG1") return -0.66;
    if (a == "HG" || a == "HG1") return 0.43;
    if (a == "CB") return 0.14;
    if (a.starts_with("H")) return 0.09;
  }
  if (r == "ASN" || r == "GLN") {
    if (a == "OD1" || a == "OE1") return -0.55;
    if (a == "ND2" || a == "NE2") return -0.62;
    if (a.starts_with("HD2") || a.starts_with("HE2")) return 0.32;
    if (a == "CG" || a == "CD") return 0.55;
    if (a.starts_with("H")) return 0.09;
  }
  if (r == "CYS") {
    if (a == "SG") return -0.23;
    if (a == "HG") return 0.16;
    if (a == "CB") return -0.11;
    if (a.starts_with("H")) return 0.09;
  }
  if (r == "TYR") {
    if (a == "OH") return -0.54;
    if (a == "HH") return 0.43;
    if (a == "CZ") return 0.11;
    if (a.starts_with("H")) return 0.08;
  }
  if (r == "MET") {
    if (a == "SD") return -0.09;
    if (a == "CE" || a == "CG") return -0.05;
    if (a.starts_with("H")) return 0.06;
  }
  if (r == "TRP") {
    if (a == "NE1") return -0.61;
    if (a == "HE1") return 0.38;
    if (a == "CD1") return 0.03;
    if (a == "CE2") return 0.13;
    if (a.starts_with("H")) return 0.06;
  }
  if (r == "PRO") {
    if (a == "CD") return 0.00;
    if (a.starts_with("H")) return 0.06;
  }
  // Apolar side chains: small alternating values so the molecule is not
  // artificially charge-free off the backbone.
  if (a.starts_with("C")) return -0.09;
  if (a.starts_with("H")) return 0.06;
  if (a.starts_with("O")) return -0.40;
  if (a.starts_with("N")) return -0.40;
  if (a.starts_with("S")) return -0.15;
  return 0.0;
}

void assign_charges_and_radii(Molecule& mol) {
  auto atoms = mol.atoms();
  const auto labels = mol.labels();
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    Atom& a = atoms[i];
    if (a.element == Element::Unknown && i < labels.size())
      a.element = element_from_atom_name(labels[i].atom_name);
    a.radius = vdw_radius(a.element);
    if (i < labels.size())
      a.charge = protein_partial_charge(labels[i].atom_name,
                                        labels[i].residue_name);
  }
}

Molecule read_pdb(std::istream& in, const std::string& name) {
  Molecule mol(name);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.size() > kMaxPdbLine)
      throw PdbParseError(util::format(
          "PDB line %d: %zu characters long — not a PDB record (limit %zu)",
          line_no, line.size(), kMaxPdbLine));
    if (util::starts_with(line, "END") && !util::starts_with(line, "ENDMDL"))
      break;
    const bool is_atom = util::starts_with(line, "ATOM  ");
    const bool is_het = util::starts_with(line, "HETATM");
    if (!is_atom && !is_het) continue;

    Atom a;
    AtomLabel label;
    label.serial = util::parse_int_field(column(line, 6, 11), 0);
    label.atom_name = std::string(column(line, 12, 16));
    label.residue_name = std::string(util::trim(column(line, 17, 20)));
    const auto chain = column(line, 21, 22);
    label.chain_id = chain.empty() ? 'A' : chain[0];
    label.residue_seq = util::parse_int_field(column(line, 22, 26), 0);
    a.pos.x = parse_coord(column(line, 30, 38), 'x', line_no);
    a.pos.y = parse_coord(column(line, 38, 46), 'y', line_no);
    a.pos.z = parse_coord(column(line, 46, 54), 'z', line_no);
    const auto elem_field = column(line, 76, 78);
    a.element = parse_element(elem_field);
    if (a.element == Element::Unknown)
      a.element = element_from_atom_name(label.atom_name);
    mol.add_atom(a, std::move(label));
  }
  if (mol.size() == 0)
    throw PdbParseError("PDB stream '" + name +
                        "' contains no ATOM/HETATM records");
  assign_charges_and_radii(mol);
  return mol;
}

Molecule read_pdb_file(const std::string& path) {
  std::ifstream f(path);
  OCTGB_CHECK_MSG(static_cast<bool>(f), "cannot open PDB file " << path);
  return read_pdb(f, path);
}

void write_pdb(const Molecule& mol, std::ostream& out) {
  const auto atoms = mol.atoms();
  const auto labels = mol.labels();
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    const Atom& a = atoms[i];
    AtomLabel label;
    if (i < labels.size()) {
      label = labels[i];
    } else {
      label.atom_name = util::format(" %-3s", std::string(element_symbol(a.element)).c_str());
      label.residue_name = "UNK";
      label.residue_seq = static_cast<int>(i / 10) + 1;
      label.serial = static_cast<int>(i) + 1;
    }
    // Columns per the PDB 3.3 spec; serial and resSeq clamp to the field
    // width for very large molecules (standard practice).
    std::string atom_name = label.atom_name;
    if (atom_name.size() < 4) atom_name.resize(4, ' ');
    out << util::format(
        "ATOM  %5d %.4s %-3s %c%4d    %8.3f%8.3f%8.3f%6.2f%6.2f          %2s\n",
        label.serial % 100000, atom_name.c_str(), label.residue_name.c_str(),
        label.chain_id, label.residue_seq % 10000, a.pos.x, a.pos.y, a.pos.z,
        1.0, 0.0, std::string(element_symbol(a.element)).c_str());
  }
  out << "TER\nEND\n";
}

bool write_pdb_file(const Molecule& mol, const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  write_pdb(mol, f);
  return static_cast<bool>(f);
}

}  // namespace octgb::mol
