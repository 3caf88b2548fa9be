#include "octgb/mol/generate.hpp"

#include <cmath>
#include <numbers>
#include <vector>

#include "octgb/geom/transform.hpp"
#include "octgb/mol/pdb.hpp"
#include "octgb/util/check.hpp"
#include "octgb/util/rng.hpp"
#include "octgb/util/strings.hpp"

namespace octgb::mol {

namespace {

using geom::Vec3;
using util::Xoshiro256;

/// One atom of a residue template: local offset from Cα, name, element.
struct TemplateAtom {
  Vec3 offset;
  const char* name;
  Element element;
};

/// A residue template. Offsets are rough idealized geometry — the energy
/// models only see positions/radii/charges, not bond topology.
struct ResidueTemplate {
  const char* name;
  std::vector<TemplateAtom> atoms;
};

const std::vector<ResidueTemplate>& residue_templates() {
  // Backbone common to all residues (N, HN, CA, HA, C, O) plus per-residue
  // side chains. Offsets in Å, in a local frame with CA at the origin.
  static const std::vector<ResidueTemplate> templates = [] {
    auto bb = [](std::vector<TemplateAtom> side) {
      std::vector<TemplateAtom> a = {
          {{-1.46, 0.00, 0.00}, "N", Element::N},
          {{-1.95, 0.85, 0.30}, "HN", Element::H},
          {{0.00, 0.00, 0.00}, "CA", Element::C},
          {{0.35, -0.95, -0.45}, "HA", Element::H},
          {{0.90, 1.20, 0.10}, "C", Element::C},
          {{0.60, 2.35, -0.20}, "O", Element::O},
      };
      a.insert(a.end(), side.begin(), side.end());
      return a;
    };
    std::vector<ResidueTemplate> t;
    t.push_back({"GLY", bb({})});
    t.push_back({"ALA", bb({{{0.55, -0.70, 1.25}, "CB", Element::C},
                            {{1.25, -1.45, 1.10}, "HB1", Element::H},
                            {{-0.30, -1.15, 1.70}, "HB2", Element::H},
                            {{0.95, 0.05, 1.95}, "HB3", Element::H}})});
    t.push_back({"SER", bb({{{0.55, -0.70, 1.25}, "CB", Element::C},
                            {{1.40, -1.55, 1.10}, "HB1", Element::H},
                            {{-0.35, -1.20, 1.65}, "HB2", Element::H},
                            {{1.05, 0.15, 2.30}, "OG", Element::O},
                            {{1.35, -0.45, 3.00}, "HG", Element::H}})});
    t.push_back({"LEU", bb({{{0.55, -0.70, 1.25}, "CB", Element::C},
                            {{1.35, -1.50, 1.15}, "HB1", Element::H},
                            {{-0.35, -1.20, 1.60}, "HB2", Element::H},
                            {{1.10, 0.10, 2.50}, "CG", Element::C},
                            {{1.95, 0.75, 2.35}, "HG", Element::H},
                            {{1.60, -1.00, 3.40}, "CD1", Element::C},
                            {{0.15, 0.95, 3.20}, "CD2", Element::C},
                            {{2.35, -0.60, 4.10}, "HD11", Element::H},
                            {{0.80, -1.45, 4.00}, "HD12", Element::H},
                            {{2.05, -1.80, 2.85}, "HD13", Element::H},
                            {{-0.55, 1.45, 2.55}, "HD21", Element::H},
                            {{0.65, 1.75, 3.75}, "HD22", Element::H},
                            {{-0.45, 0.35, 3.90}, "HD23", Element::H}})});
    t.push_back({"LYS", bb({{{0.55, -0.70, 1.25}, "CB", Element::C},
                            {{1.35, -1.50, 1.15}, "HB1", Element::H},
                            {{-0.35, -1.20, 1.60}, "HB2", Element::H},
                            {{1.10, 0.10, 2.50}, "CG", Element::C},
                            {{1.70, -0.75, 3.55}, "CD", Element::C},
                            {{2.25, 0.10, 4.65}, "CE", Element::C},
                            {{2.85, -0.65, 5.75}, "NZ", Element::N},
                            {{3.30, 0.00, 6.40}, "HZ1", Element::H},
                            {{2.20, -1.20, 6.25}, "HZ2", Element::H},
                            {{3.50, -1.25, 5.40}, "HZ3", Element::H},
                            {{1.95, 0.95, 2.15}, "HG1", Element::H},
                            {{0.30, 0.55, 3.00}, "HG2", Element::H},
                            {{0.90, -1.50, 3.95}, "HD1", Element::H},
                            {{2.50, -1.35, 3.15}, "HD2", Element::H},
                            {{3.00, 0.80, 4.25}, "HE1", Element::H},
                            {{1.45, 0.65, 5.10}, "HE2", Element::H}})});
    t.push_back({"ASP", bb({{{0.55, -0.70, 1.25}, "CB", Element::C},
                            {{1.35, -1.50, 1.15}, "HB1", Element::H},
                            {{-0.35, -1.20, 1.60}, "HB2", Element::H},
                            {{1.10, 0.10, 2.50}, "CG", Element::C},
                            {{2.10, 0.85, 2.55}, "OD1", Element::O},
                            {{0.50, -0.10, 3.60}, "OD2", Element::O}})});
    t.push_back({"GLU", bb({{{0.55, -0.70, 1.25}, "CB", Element::C},
                            {{1.35, -1.50, 1.15}, "HB1", Element::H},
                            {{-0.35, -1.20, 1.60}, "HB2", Element::H},
                            {{1.10, 0.10, 2.50}, "CG", Element::C},
                            {{1.70, -0.75, 3.55}, "CD", Element::C},
                            {{2.70, -0.40, 4.20}, "OE1", Element::O},
                            {{1.15, -1.85, 3.80}, "OE2", Element::O},
                            {{1.95, 0.95, 2.15}, "HG1", Element::H},
                            {{0.30, 0.55, 3.00}, "HG2", Element::H}})});
    t.push_back({"PHE", bb({{{0.55, -0.70, 1.25}, "CB", Element::C},
                            {{1.35, -1.50, 1.15}, "HB1", Element::H},
                            {{-0.35, -1.20, 1.60}, "HB2", Element::H},
                            {{1.10, 0.10, 2.50}, "CG", Element::C},
                            {{2.30, 0.75, 2.60}, "CD1", Element::C},
                            {{0.40, 0.05, 3.70}, "CD2", Element::C},
                            {{2.80, 1.40, 3.75}, "CE1", Element::C},
                            {{0.90, 0.70, 4.85}, "CE2", Element::C},
                            {{2.10, 1.40, 4.90}, "CZ", Element::C},
                            {{2.85, 0.80, 1.75}, "HD1", Element::H},
                            {{-0.50, -0.45, 3.65}, "HD2", Element::H},
                            {{3.70, 1.90, 3.80}, "HE1", Element::H},
                            {{0.35, 0.65, 5.75}, "HE2", Element::H},
                            {{2.50, 1.90, 5.75}, "HZ", Element::H}})});
    t.push_back({"THR", bb({{{0.55, -0.70, 1.25}, "CB", Element::C},
                            {{1.40, -1.45, 1.25}, "HB", Element::H},
                            {{1.05, 0.15, 2.30}, "OG1", Element::O},
                            {{1.40, -0.45, 2.95}, "HG1", Element::H},
                            {{-0.45, -0.15, 2.35}, "CG2", Element::C},
                            {{-1.10, -0.95, 2.60}, "HG21", Element::H},
                            {{-1.00, 0.65, 1.95}, "HG22", Element::H},
                            {{0.00, 0.20, 3.30}, "HG23", Element::H}})});
    t.push_back({"VAL", bb({
        {{0.55, -0.70, 1.25}, "CB", Element::C},
        {{1.40, -1.40, 1.20}, "HB", Element::H},
        {{-0.40, -0.10, 2.30}, "CG1", Element::C},
        {{1.15, 0.45, 2.15}, "CG2", Element::C},
        {{-1.10, -0.85, 2.55}, "HG11", Element::H},
        {{-0.95, 0.75, 2.00}, "HG12", Element::H},
        {{0.10, 0.25, 3.20}, "HG13", Element::H},
        {{1.85, -0.25, 2.55}, "HG21", Element::H},
        {{0.60, 1.00, 2.95}, "HG22", Element::H},
        {{1.75, 1.15, 1.55}, "HG23", Element::H},
    })});
    t.push_back({"ILE", bb({
        {{0.55, -0.70, 1.25}, "CB", Element::C},
        {{1.40, -1.40, 1.20}, "HB", Element::H},
        {{-0.35, -0.05, 2.35}, "CG1", Element::C},
        {{1.20, 0.40, 2.10}, "CG2", Element::C},
        {{0.25, -0.95, 3.50}, "CD1", Element::C},
        {{-1.10, 0.60, 2.05}, "HG11", Element::H},
        {{-0.90, -0.80, 2.80}, "HG12", Element::H},
        {{0.95, -0.45, 4.15}, "HD11", Element::H},
        {{-0.55, -1.30, 4.10}, "HD12", Element::H},
        {{0.75, -1.80, 3.15}, "HD13", Element::H},
        {{1.90, -0.30, 2.50}, "HG21", Element::H},
        {{0.65, 0.95, 2.90}, "HG22", Element::H},
        {{1.80, 1.10, 1.50}, "HG23", Element::H},
    })});
    t.push_back({"PRO", bb({
        {{0.55, -0.70, 1.25}, "CB", Element::C},
        {{1.40, -1.40, 1.15}, "HB1", Element::H},
        {{-0.30, -1.25, 1.60}, "HB2", Element::H},
        {{0.95, 0.30, 2.30}, "CG", Element::C},
        {{1.80, 0.90, 2.00}, "HG1", Element::H},
        {{0.10, 0.95, 2.55}, "HG2", Element::H},
        {{1.30, -0.45, 3.55}, "CD", Element::C},
        {{2.20, -1.05, 3.40}, "HD1", Element::H},
        {{0.50, -1.10, 3.90}, "HD2", Element::H},
    })});
    t.push_back({"MET", bb({
        {{0.55, -0.70, 1.25}, "CB", Element::C},
        {{1.40, -1.40, 1.15}, "HB1", Element::H},
        {{-0.30, -1.25, 1.60}, "HB2", Element::H},
        {{1.05, 0.15, 2.40}, "CG", Element::C},
        {{1.90, 0.75, 2.10}, "HG1", Element::H},
        {{0.25, 0.80, 2.75}, "HG2", Element::H},
        {{1.55, -0.85, 3.80}, "SD", Element::S},
        {{2.25, 0.25, 5.00}, "CE", Element::C},
        {{2.95, 1.00, 4.65}, "HE1", Element::H},
        {{1.50, 0.75, 5.60}, "HE2", Element::H},
        {{2.80, -0.35, 5.70}, "HE3", Element::H},
    })});
    t.push_back({"TRP", bb({
        {{0.55, -0.70, 1.25}, "CB", Element::C},
        {{1.40, -1.40, 1.15}, "HB1", Element::H},
        {{-0.30, -1.25, 1.60}, "HB2", Element::H},
        {{1.05, 0.15, 2.40}, "CG", Element::C},
        {{2.25, 0.75, 2.50}, "CD1", Element::C},
        {{3.00, 0.65, 1.75}, "HD1", Element::H},
        {{2.35, 1.50, 3.65}, "NE1", Element::N},
        {{3.15, 2.05, 3.95}, "HE1", Element::H},
        {{1.20, 1.40, 4.35}, "CE2", Element::C},
        {{0.35, 0.55, 3.60}, "CD2", Element::C},
        {{-0.95, 0.25, 3.95}, "CE3", Element::C},
        {{-1.60, -0.40, 3.40}, "HE3", Element::H},
        {{-1.35, 0.80, 5.15}, "CZ3", Element::C},
        {{-2.35, 0.60, 5.45}, "HZ3", Element::H},
        {{-0.50, 1.65, 5.90}, "CH2", Element::C},
        {{-0.85, 2.05, 6.85}, "HH2", Element::H},
        {{0.80, 1.95, 5.55}, "CZ2", Element::C},
        {{1.45, 2.60, 6.10}, "HZ2", Element::H},
    })});
    t.push_back({"TYR", bb({
        {{0.55, -0.70, 1.25}, "CB", Element::C},
        {{1.40, -1.40, 1.15}, "HB1", Element::H},
        {{-0.30, -1.25, 1.60}, "HB2", Element::H},
        {{1.05, 0.15, 2.45}, "CG", Element::C},
        {{2.25, 0.80, 2.55}, "CD1", Element::C},
        {{2.85, 0.85, 1.70}, "HD1", Element::H},
        {{0.40, 0.10, 3.70}, "CD2", Element::C},
        {{-0.55, -0.40, 3.70}, "HD2", Element::H},
        {{2.75, 1.45, 3.70}, "CE1", Element::C},
        {{3.70, 1.95, 3.75}, "HE1", Element::H},
        {{0.90, 0.75, 4.85}, "CE2", Element::C},
        {{0.35, 0.70, 5.75}, "HE2", Element::H},
        {{2.05, 1.45, 4.90}, "CZ", Element::C},
        {{2.55, 2.10, 6.00}, "OH", Element::O},
        {{2.00, 2.05, 6.80}, "HH", Element::H},
    })});
    t.push_back({"HIS", bb({
        {{0.55, -0.70, 1.25}, "CB", Element::C},
        {{1.40, -1.40, 1.15}, "HB1", Element::H},
        {{-0.30, -1.25, 1.60}, "HB2", Element::H},
        {{1.05, 0.15, 2.45}, "CG", Element::C},
        {{2.30, 0.65, 2.55}, "ND1", Element::N},
        {{3.05, 0.50, 1.90}, "HD1", Element::H},
        {{0.45, 0.55, 3.60}, "CD2", Element::C},
        {{-0.55, 0.40, 3.95}, "HD2", Element::H},
        {{2.45, 1.40, 3.65}, "CE1", Element::C},
        {{3.35, 1.90, 3.95}, "HE1", Element::H},
        {{1.35, 1.40, 4.40}, "NE2", Element::N},
        {{1.25, 1.90, 5.25}, "HE2", Element::H},
    })});
    t.push_back({"CYS", bb({
        {{0.55, -0.70, 1.25}, "CB", Element::C},
        {{1.40, -1.40, 1.15}, "HB1", Element::H},
        {{-0.30, -1.25, 1.60}, "HB2", Element::H},
        {{1.20, 0.35, 2.70}, "SG", Element::S},
        {{2.00, 1.05, 2.25}, "HG", Element::H},
    })});
    t.push_back({"ASN", bb({
        {{0.55, -0.70, 1.25}, "CB", Element::C},
        {{1.40, -1.40, 1.15}, "HB1", Element::H},
        {{-0.30, -1.25, 1.60}, "HB2", Element::H},
        {{1.05, 0.15, 2.45}, "CG", Element::C},
        {{2.10, 0.80, 2.55}, "OD1", Element::O},
        {{0.35, 0.05, 3.60}, "ND2", Element::N},
        {{0.65, 0.50, 4.40}, "HD21", Element::H},
        {{-0.50, -0.45, 3.65}, "HD22", Element::H},
    })});
    t.push_back({"GLN", bb({
        {{0.55, -0.70, 1.25}, "CB", Element::C},
        {{1.40, -1.40, 1.15}, "HB1", Element::H},
        {{-0.30, -1.25, 1.60}, "HB2", Element::H},
        {{1.05, 0.15, 2.45}, "CG", Element::C},
        {{1.90, 0.80, 2.15}, "HG1", Element::H},
        {{0.25, 0.80, 2.80}, "HG2", Element::H},
        {{1.55, -0.75, 3.65}, "CD", Element::C},
        {{2.60, -1.40, 3.55}, "OE1", Element::O},
        {{0.85, -0.85, 4.80}, "NE2", Element::N},
        {{1.15, -1.45, 5.55}, "HE21", Element::H},
        {{0.00, -0.35, 4.90}, "HE22", Element::H},
    })});
    t.push_back({"ARG", bb({
        {{0.55, -0.70, 1.25}, "CB", Element::C},
        {{1.40, -1.40, 1.15}, "HB1", Element::H},
        {{-0.30, -1.25, 1.60}, "HB2", Element::H},
        {{1.05, 0.15, 2.45}, "CG", Element::C},
        {{1.90, 0.80, 2.15}, "HG1", Element::H},
        {{0.25, 0.80, 2.80}, "HG2", Element::H},
        {{1.55, -0.75, 3.65}, "CD", Element::C},
        {{0.75, -1.40, 4.00}, "HD1", Element::H},
        {{2.40, -1.40, 3.35}, "HD2", Element::H},
        {{2.00, 0.05, 4.80}, "NE", Element::N},
        {{2.90, 0.55, 4.70}, "HE", Element::H},
        {{1.40, 0.15, 6.00}, "CZ", Element::C},
        {{0.25, -0.45, 6.25}, "NH1", Element::N},
        {{-0.20, -1.00, 5.55}, "HH11", Element::H},
        {{-0.15, -0.35, 7.15}, "HH12", Element::H},
        {{1.95, 0.90, 6.95}, "NH2", Element::N},
        {{2.85, 1.35, 6.80}, "HH21", Element::H},
        {{1.50, 1.00, 7.85}, "HH22", Element::H},
    })});
    return t;
  }();
  return templates;
}

/// Protein interior density: ~0.0085 residues per Å means one residue per
/// ~118 Å³ — matches globular proteins.
constexpr double kResiduePerA3 = 1.0 / 118.0;

/// Average atoms per residue across the template set (used to size the
/// confining sphere from the atom budget).
double mean_atoms_per_residue() {
  const auto& ts = residue_templates();
  double s = 0;
  for (const auto& t : ts) s += static_cast<double>(t.atoms.size());
  return s / static_cast<double>(ts.size());
}

}  // namespace

Molecule generate_protein(const ProteinSpec& spec) {
  OCTGB_CHECK_MSG(spec.target_atoms >= 6, "need at least one residue");
  OCTGB_CHECK_MSG(spec.target_atoms <= kMaxGeneratedAtoms,
                  "target_atoms " << spec.target_atoms << " exceeds "
                                  << kMaxGeneratedAtoms);
  Xoshiro256 rng(spec.seed);
  const auto& templates = residue_templates();

  const double n_res_target =
      static_cast<double>(spec.target_atoms) / mean_atoms_per_residue();
  // Confining sphere sized for protein density.
  const double volume = n_res_target / (kResiduePerA3 * spec.compactness);
  const double R = std::cbrt(volume * 3.0 / (4.0 * std::numbers::pi));

  Molecule mol;
  mol.reserve(spec.target_atoms + 32);

  std::vector<Vec3> ca_positions;  // for self-avoidance
  Vec3 ca = {rng.uniform(-0.3, 0.3) * R, rng.uniform(-0.3, 0.3) * R,
             rng.uniform(-0.3, 0.3) * R};
  int residue_seq = 0;
  int serial = 1;

  while (mol.size() < spec.target_atoms) {
    ++residue_seq;
    const auto& tpl = templates[rng.below(templates.size())];
    // Random rigid orientation of the residue template.
    const geom::Mat3 rot = geom::Mat3::euler_zyx(
        rng.uniform(0, 2 * std::numbers::pi),
        rng.uniform(0, 2 * std::numbers::pi),
        rng.uniform(0, 2 * std::numbers::pi));
    for (const TemplateAtom& ta : tpl.atoms) {
      Atom a;
      a.pos = ca + rot.apply(ta.offset);
      a.element = ta.element;
      AtomLabel label;
      label.atom_name = ta.name;
      label.residue_name = tpl.name;
      label.residue_seq = residue_seq;
      label.serial = serial++;
      mol.add_atom(a, std::move(label));
    }
    ca_positions.push_back(ca);

    // Advance the Cα walk: 3.8 Å step, biased back toward the center when
    // near the confining sphere, rejecting steps that clash with previous
    // Cα positions (self-avoidance makes the chain fill the ball).
    for (int attempt = 0;; ++attempt) {
      Vec3 dir{rng.normal(), rng.normal(), rng.normal()};
      dir = dir.normalized();
      // Inward bias proportional to how far out we are.
      const double out = ca.norm() / R;
      dir = (dir - ca.normalized() * (0.8 * out * out)).normalized();
      const Vec3 next = ca + dir * 3.8;
      bool ok = next.norm() <= R;
      if (ok) {
        // Check the most recent positions only (older ones rarely matter
        // and this keeps generation O(n)).
        const std::size_t lookback =
            ca_positions.size() > 64 ? ca_positions.size() - 64 : 0;
        for (std::size_t i = lookback; i + 1 < ca_positions.size(); ++i) {
          if (geom::dist2(next, ca_positions[i]) < 4.2 * 4.2) {
            ok = false;
            break;
          }
        }
      }
      if (ok || attempt > 40) {
        ca = ok ? next : ca + Vec3{rng.normal(), rng.normal(), rng.normal()}
                                  .normalized() *
                              3.8;
        if (!ok) ca = ca * std::min(1.0, R / ca.norm());
        break;
      }
    }
  }
  assign_charges_and_radii(mol);
  mol.set_name(util::format("synthetic_%zu", mol.size()));
  return mol;
}

Molecule generate_virus_shell(const ShellSpec& spec) {
  OCTGB_CHECK_MSG(spec.target_atoms >= 100, "shell too small");
  OCTGB_CHECK_MSG(spec.target_atoms <= kMaxGeneratedAtoms,
                  "target_atoms " << spec.target_atoms << " exceeds "
                                  << kMaxGeneratedAtoms);
  Xoshiro256 rng(spec.seed);
  const auto& templates = residue_templates();
  const double apr = mean_atoms_per_residue();
  const double n_res = static_cast<double>(spec.target_atoms) / apr;

  // Shell wall volume = 4π R² t at protein density ⇒ R from the budget.
  const double wall_volume = n_res / kResiduePerA3;
  const double R =
      std::sqrt(wall_volume / (4.0 * std::numbers::pi * spec.thickness));

  Molecule mol;
  mol.reserve(spec.target_atoms + 64);
  const auto n_sites = static_cast<std::size_t>(n_res);
  int serial = 1;
  const double golden = std::numbers::pi * (3.0 - std::sqrt(5.0));
  for (std::size_t i = 0; i < n_sites && mol.size() < spec.target_atoms;
       ++i) {
    // Fibonacci sphere gives quasi-uniform site placement (icosahedral-ish
    // coverage); radial jitter spreads residues through the wall.
    const double y = 1.0 - 2.0 * (static_cast<double>(i) + 0.5) /
                               static_cast<double>(n_sites);
    const double r_xy = std::sqrt(std::max(0.0, 1.0 - y * y));
    const double theta = golden * static_cast<double>(i);
    const Vec3 unit{r_xy * std::cos(theta), y, r_xy * std::sin(theta)};
    const double radial =
        R + spec.thickness * (rng.uniform() - 0.5);
    const Vec3 site = unit * radial;

    const auto& tpl = templates[rng.below(templates.size())];
    const geom::Mat3 rot = geom::Mat3::euler_zyx(
        rng.uniform(0, 2 * std::numbers::pi),
        rng.uniform(0, 2 * std::numbers::pi),
        rng.uniform(0, 2 * std::numbers::pi));
    for (const TemplateAtom& ta : tpl.atoms) {
      Atom a;
      a.pos = site + rot.apply(ta.offset);
      a.element = ta.element;
      AtomLabel label;
      label.atom_name = ta.name;
      label.residue_name = tpl.name;
      label.residue_seq = static_cast<int>(i) + 1;
      label.serial = serial++;
      mol.add_atom(a, std::move(label));
    }
  }
  assign_charges_and_radii(mol);
  mol.set_name(util::format("shell_%zu", mol.size()));
  return mol;
}

}  // namespace octgb::mol
