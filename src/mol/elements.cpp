#include "octgb/mol/elements.hpp"

#include <cctype>

#include "octgb/util/strings.hpp"

namespace octgb::mol {

double vdw_radius(Element e) {
  switch (e) {
    case Element::H:
      return 1.20;
    case Element::C:
      return 1.70;
    case Element::N:
      return 1.55;
    case Element::O:
      return 1.52;
    case Element::P:
      return 1.80;
    case Element::S:
      return 1.80;
    case Element::Fe:
      return 2.05;
    case Element::Zn:
      return 2.10;
    case Element::Unknown:
      return 1.70;
  }
  return 1.70;
}

std::string_view element_symbol(Element e) {
  switch (e) {
    case Element::H:
      return "H";
    case Element::C:
      return "C";
    case Element::N:
      return "N";
    case Element::O:
      return "O";
    case Element::P:
      return "P";
    case Element::S:
      return "S";
    case Element::Fe:
      return "FE";
    case Element::Zn:
      return "ZN";
    case Element::Unknown:
      return "X";
  }
  return "X";
}

Element parse_element(std::string_view symbol) {
  const std::string s = util::to_upper(util::trim(symbol));
  if (s == "H" || s == "D") return Element::H;
  if (s == "C") return Element::C;
  if (s == "N") return Element::N;
  if (s == "O") return Element::O;
  if (s == "P") return Element::P;
  if (s == "S") return Element::S;
  if (s == "FE") return Element::Fe;
  if (s == "ZN") return Element::Zn;
  return Element::Unknown;
}

Element element_from_atom_name(std::string_view name) {
  // PDB atom names right-justify single-letter elements in columns 13-14;
  // digits prefix hydrogens ("1HB1"). Try the two-letter symbol first.
  const std::string t = util::to_upper(util::trim(name));
  if (t.empty()) return Element::Unknown;
  if (t.size() >= 2) {
    const Element two = parse_element(t.substr(0, 2));
    if (two == Element::Fe || two == Element::Zn) return two;
  }
  for (char c : t) {
    if (std::isdigit(static_cast<unsigned char>(c))) continue;
    return parse_element(std::string_view(&c, 1));
  }
  return Element::Unknown;
}

}  // namespace octgb::mol
