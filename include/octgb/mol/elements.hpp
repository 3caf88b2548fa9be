#pragma once
/// \file elements.hpp
/// Chemical element data: Bondi van-der-Waals radii and masses for the
/// elements that occur in proteins (plus a generic fallback). The intrinsic
/// atom radius feeding the Born-radius clamp is the Bondi vdW radius.

#include <cstdint>
#include <string>
#include <string_view>

namespace octgb::mol {

/// Atomic numbers for the elements the library knows natively.
enum class Element : std::uint8_t {
  Unknown = 0,
  H = 1,
  C = 6,
  N = 7,
  O = 8,
  P = 15,
  S = 16,
  Fe = 26,
  Zn = 30,
};

/// Bondi van-der-Waals radius in Å. Unknown elements get 1.7 Å (carbon).
double vdw_radius(Element e);

/// One- or two-letter element symbol ("C", "Fe"); Unknown → "X".
std::string_view element_symbol(Element e);

/// Parse a PDB element field or leading characters of an atom name.
/// Unrecognized symbols map to Element::Unknown.
Element parse_element(std::string_view symbol);

/// Guess the element from a PDB atom name (columns 13–16), e.g. " CA " → C,
/// "1HB " → H, "FE  " → Fe.
Element element_from_atom_name(std::string_view name);

}  // namespace octgb::mol
