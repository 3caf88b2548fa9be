#pragma once
/// \file pdb.hpp
/// PDB file reader/writer (ATOM/HETATM fixed-column records).
///
/// Charges are not part of standard PDB; on load each atom receives a
/// partial charge from a CHARMM-like per-atom-name table
/// (assign_charges_and_radii), the same table the synthetic generator uses,
/// so files written by the generator round-trip to identical energies.

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "octgb/mol/molecule.hpp"

namespace octgb::mol {

/// Thrown by read_pdb on malformed input: overlong (non-PDB) lines,
/// blank or non-numeric coordinate fields, non-integer serial or
/// residue-sequence fields, or a file with no atoms at all. The message
/// names the offending line number.
class PdbParseError : public std::runtime_error {
 public:
  explicit PdbParseError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Parse PDB text from a stream. Reads ATOM and HETATM records until END
/// (or EOF); ignores everything else. Malformed records throw
/// PdbParseError with the line number; a file yielding zero atoms is an
/// error, never an empty molecule.
Molecule read_pdb(std::istream& in, const std::string& name = "pdb");

/// Parse a PDB file from disk.
Molecule read_pdb_file(const std::string& path);

/// Write ATOM records (plus TER/END) for every atom. Atoms without labels
/// get synthesized names ("C", residue "UNK").
void write_pdb(const Molecule& mol, std::ostream& out);

/// Write to a file; returns false on I/O error.
bool write_pdb_file(const Molecule& mol, const std::string& path);

/// Fill in radius (Bondi by element) and partial charge (per-atom-name
/// protein table; falls back to 0) for every atom in place. Called
/// automatically by read_pdb.
void assign_charges_and_radii(Molecule& mol);

/// Partial charge for a protein atom name within a residue (CHARMM-like
/// coarse table; see pdb.cpp). Unknown names return 0.
double protein_partial_charge(std::string_view atom_name,
                              std::string_view residue_name);

}  // namespace octgb::mol
