#pragma once
/// \file generate.hpp
/// Synthetic molecule generators.
///
/// The paper evaluates on the ZDock Benchmark Suite 2.0 (84 bound
/// complexes, 400–16,000 atoms) plus two virus structures (BTV, 6M atoms;
/// CMV shell, 509,640 atoms). Those inputs are not redistributable here, so
/// we synthesize molecules with the same *statistics the algorithms are
/// sensitive to*: globular packing at protein density (≈ 0.0085 residues/Å³)
/// for the benchmark proteins, and a hollow icosahedral shell for the
/// viruses. Generation is deterministic: the same name/seed always yields
/// bit-identical molecules.

#include <cstdint>

#include "octgb/mol/molecule.hpp"

namespace octgb::mol {

/// Largest `target_atoms` either generator accepts, well above the 6M-atom
/// BTV (the largest molecule the paper runs). A negative CLI count cast to
/// std::size_t lands far above it and is rejected, instead of growing a
/// molecule until the process is killed.
inline constexpr std::size_t kMaxGeneratedAtoms = 100'000'000;

/// Parameters for the globular synthetic protein generator.
struct ProteinSpec {
  std::size_t target_atoms = 1000;  ///< approximate atom count (± 1 residue)
  std::uint64_t seed = 1;           ///< deterministic stream seed
};

/// Generate a globular protein-like molecule: a self-avoiding Cα random
/// walk confined to a sphere sized for protein density, with residue
/// templates (backbone + side-chain atoms, CHARMM-like partial charges)
/// attached at each Cα. Net charge is a small integer. Throws
/// util::CheckError unless 6 <= target_atoms <= kMaxGeneratedAtoms.
Molecule generate_protein(const ProteinSpec& spec);

/// Parameters for the icosahedral virus-shell generator.
struct ShellSpec {
  std::size_t target_atoms = 100000;  ///< approximate atom count
  std::uint64_t seed = 7;
};

/// Generate a hollow capsid shell: protein-like residue clusters placed on
/// a Fibonacci lattice over a sphere whose radius is chosen so the wall
/// (18 Å thick, capsid-like) has protein density. This is the stand-in for
/// BTV / the CMV shell. Throws util::CheckError unless 100 <= target_atoms
/// <= kMaxGeneratedAtoms.
Molecule generate_virus_shell(const ShellSpec& spec);

}  // namespace octgb::mol
