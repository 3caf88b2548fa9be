// Tests for octgb::mol — elements, molecules, PDB I/O, generators.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "octgb/mol/elements.hpp"
#include "octgb/mol/generate.hpp"
#include "octgb/mol/molecule.hpp"
#include "octgb/mol/pdb.hpp"
#include "octgb/mol/zdock.hpp"
#include "octgb/util/check.hpp"
#include "octgb/util/strings.hpp"

using namespace octgb::mol;

// ---- elements --------------------------------------------------------------

TEST(Elements, BondiRadii) {
  EXPECT_DOUBLE_EQ(vdw_radius(Element::H), 1.20);
  EXPECT_DOUBLE_EQ(vdw_radius(Element::C), 1.70);
  EXPECT_DOUBLE_EQ(vdw_radius(Element::N), 1.55);
  EXPECT_DOUBLE_EQ(vdw_radius(Element::O), 1.52);
  EXPECT_DOUBLE_EQ(vdw_radius(Element::S), 1.80);
  EXPECT_DOUBLE_EQ(vdw_radius(Element::Unknown), 1.70);
}

TEST(Elements, ParseSymbols) {
  EXPECT_EQ(parse_element("C"), Element::C);
  EXPECT_EQ(parse_element(" n "), Element::N);
  EXPECT_EQ(parse_element("FE"), Element::Fe);
  EXPECT_EQ(parse_element("zn"), Element::Zn);
  EXPECT_EQ(parse_element("Xx"), Element::Unknown);
  EXPECT_EQ(parse_element("D"), Element::H);  // deuterium
}

TEST(Elements, ElementFromAtomName) {
  EXPECT_EQ(element_from_atom_name(" CA "), Element::C);
  EXPECT_EQ(element_from_atom_name(" N  "), Element::N);
  EXPECT_EQ(element_from_atom_name("1HB1"), Element::H);
  EXPECT_EQ(element_from_atom_name("FE  "), Element::Fe);
  EXPECT_EQ(element_from_atom_name(" OG1"), Element::O);
  EXPECT_EQ(element_from_atom_name(" SG "), Element::S);
}

// ---- molecule ---------------------------------------------------------------

TEST(Molecule, AddAtomsAndBasics) {
  Molecule m("test");
  m.add_atom({{0, 0, 0}, 1.5, 0.5, Element::C});
  m.add_atom({{2, 0, 0}, 1.2, -0.5, Element::O});
  EXPECT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m.net_charge(), 0.0);
  EXPECT_EQ(m.centroid(), (octgb::geom::Vec3{1, 0, 0}));
  EXPECT_EQ(m.name(), "test");
}

TEST(Molecule, BoundsAndInflatedBounds) {
  Molecule m;
  m.add_atom({{0, 0, 0}, 1.5, 0, Element::C});
  m.add_atom({{4, 0, 0}, 2.0, 0, Element::C});
  EXPECT_DOUBLE_EQ(m.bounds().extent().x, 4.0);
  EXPECT_DOUBLE_EQ(m.inflated_bounds().lo.x, -1.5);
  EXPECT_DOUBLE_EQ(m.inflated_bounds().hi.x, 6.0);
}

TEST(Molecule, MixingLabeledAndUnlabeledIsRejected) {
  Molecule m;
  m.add_atom({{0, 0, 0}, 1, 0, Element::C});
  EXPECT_THROW(m.add_atom({{1, 0, 0}, 1, 0, Element::C}, AtomLabel{}),
               octgb::util::CheckError);
}

TEST(Molecule, TransformMovesAllAtoms) {
  Molecule m;
  m.add_atom({{1, 0, 0}, 1, 0, Element::C});
  m.add_atom({{0, 1, 0}, 1, 0, Element::C});
  m.transform(octgb::geom::RigidTransform::translate({10, 0, 0}));
  EXPECT_EQ(m.atom(0).pos, (octgb::geom::Vec3{11, 0, 0}));
  EXPECT_EQ(m.atom(1).pos, (octgb::geom::Vec3{10, 1, 0}));
}

TEST(Molecule, FootprintGrowsWithAtoms) {
  Molecule small, big;
  for (int i = 0; i < 10; ++i)
    small.add_atom({{double(i), 0, 0}, 1, 0, Element::C});
  for (int i = 0; i < 1000; ++i)
    big.add_atom({{double(i), 0, 0}, 1, 0, Element::C});
  EXPECT_GT(big.footprint_bytes(), small.footprint_bytes());
}

// ---- PDB I/O ---------------------------------------------------------------

TEST(Pdb, ParseMinimalRecord) {
  std::istringstream in(
      "ATOM      1  CA  ALA A   1      11.104   6.134  -6.504  1.00  0.00"
      "           C\n"
      "END\n");
  const Molecule m = read_pdb(in, "mini");
  ASSERT_EQ(m.size(), 1u);
  EXPECT_NEAR(m.atom(0).pos.x, 11.104, 1e-9);
  EXPECT_NEAR(m.atom(0).pos.y, 6.134, 1e-9);
  EXPECT_NEAR(m.atom(0).pos.z, -6.504, 1e-9);
  EXPECT_EQ(m.atom(0).element, Element::C);
  EXPECT_DOUBLE_EQ(m.atom(0).radius, 1.70);
  EXPECT_DOUBLE_EQ(m.atom(0).charge, 0.07);  // backbone CA
  ASSERT_TRUE(m.has_labels());
  EXPECT_EQ(m.labels()[0].residue_name, "ALA");
  EXPECT_EQ(m.labels()[0].residue_seq, 1);
}

TEST(Pdb, HetatmAndUnknownElementFallsBackToAtomName) {
  std::istringstream in(
      "HETATM    1 FE   HEM A   1       0.000   0.000   0.000  1.00  0.00\n");
  const Molecule m = read_pdb(in);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m.atom(0).element, Element::Fe);
}

TEST(Pdb, IgnoresNonAtomRecordsAndStopsAtEnd) {
  std::istringstream in(
      "HEADER    test\n"
      "REMARK    nothing\n"
      "ATOM      1  N   GLY A   1       0.000   0.000   0.000\n"
      "TER\n"
      "END\n"
      "ATOM      2  O   GLY A   2       1.000   0.000   0.000\n");
  const Molecule m = read_pdb(in);
  EXPECT_EQ(m.size(), 1u);  // record after END ignored
}

TEST(Pdb, MalformedInputThrowsParseErrorsWithLineNumbers) {
  auto expect_parse_error = [](const std::string& text,
                               const std::string& needle) {
    std::istringstream in(text);
    try {
      read_pdb(in, "bad");
      FAIL() << "expected PdbParseError for: " << text;
    } catch (const PdbParseError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "message was: " << e.what();
    }
  };
  // Non-numeric coordinate: names the line and the axis.
  expect_parse_error(
      "ATOM      1  CA  ALA A   1      banana   6.134  -6.504\n",
      "line 1: non-numeric x-coordinate");
  // Non-finite coordinate (strtod reads these as numbers): names the line
  // and the axis, in every axis.
  for (const char* field : {"     nan", "     inf", "    -inf"}) {
    const std::string f(field);
    expect_parse_error("ATOM      1  CA  ALA A   1    " + f +
                           "   6.134  -6.504\n",
                       "line 1: non-finite x-coordinate");
    expect_parse_error("ATOM      1  CA  ALA A   1      11.104" + f +
                           "  -6.504\n",
                       "line 1: non-finite y-coordinate");
    expect_parse_error("REMARK    padding\n"
                       "ATOM      1  CA  ALA A   1      11.104   6.134" +
                           f + "\n",
                       "line 2: non-finite z-coordinate");
  }
  // Blank coordinate column (short line cuts off z).
  expect_parse_error(
      "REMARK    padding\n"
      "ATOM      1  CA  ALA A   1      11.104   6.134\n",
      "line 2: blank z-coordinate");
  // Overlong line: not a PDB record at all.
  expect_parse_error("ATOM  " + std::string(600, 'x') + "\n", "line 1");
  // No atoms at all is an error, never an empty molecule.
  expect_parse_error("HEADER    empty\nEND\n", "no ATOM/HETATM records");
}

TEST(Pdb, RoundTripPreservesGeometryAndEnergyInputs) {
  const Molecule original = generate_protein({.target_atoms = 120, .seed = 3});
  std::ostringstream out;
  write_pdb(original, out);
  std::istringstream in(out.str());
  const Molecule parsed = read_pdb(in, original.name());
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    // PDB stores 3 decimals of position.
    EXPECT_NEAR(parsed.atom(i).pos.x, original.atom(i).pos.x, 5e-4);
    EXPECT_NEAR(parsed.atom(i).pos.y, original.atom(i).pos.y, 5e-4);
    EXPECT_NEAR(parsed.atom(i).pos.z, original.atom(i).pos.z, 5e-4);
    EXPECT_EQ(parsed.atom(i).element, original.atom(i).element);
    EXPECT_DOUBLE_EQ(parsed.atom(i).radius, original.atom(i).radius);
    EXPECT_DOUBLE_EQ(parsed.atom(i).charge, original.atom(i).charge);
  }
}

TEST(Pdb, ChargeTableBackboneSumsNearZero) {
  // N + HN + CA + HA + C + O ≈ 0 (neutral backbone).
  const double sum = protein_partial_charge("N", "GLY") +
                     protein_partial_charge("HN", "GLY") +
                     protein_partial_charge("CA", "GLY") +
                     protein_partial_charge("HA", "GLY") +
                     protein_partial_charge("C", "GLY") +
                     protein_partial_charge("O", "GLY");
  EXPECT_NEAR(sum, 0.0, 1e-12);
}

// ---- generators -------------------------------------------------------------

TEST(Generate, DeterministicPerSeed) {
  const Molecule a = generate_protein({.target_atoms = 300, .seed = 42});
  const Molecule b = generate_protein({.target_atoms = 300, .seed = 42});
  const Molecule c = generate_protein({.target_atoms = 300, .seed = 43});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.atom(i).pos, b.atom(i).pos);
    EXPECT_EQ(a.atom(i).charge, b.atom(i).charge);
  }
  EXPECT_NE(a.atom(5).pos, c.atom(5).pos);
}

class GenerateSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GenerateSizes, HitsAtomBudgetWithinOneResidue) {
  const std::size_t target = GetParam();
  const Molecule m = generate_protein({.target_atoms = target, .seed = 1});
  EXPECT_GE(m.size(), target);
  EXPECT_LE(m.size(), target + 32);  // at most one residue overshoot
}

TEST_P(GenerateSizes, GlobularProteinDensity) {
  const std::size_t target = GetParam();
  const Molecule m = generate_protein({.target_atoms = target, .seed = 2});
  // Radius of gyration of a globule scales as n^(1/3); packing should be
  // protein-like: ~7–20 atoms per nm³ within the bounding sphere.
  const auto c = m.centroid();
  double r2max = 0;
  for (const auto& a : m.atoms()) r2max = std::max(r2max, octgb::geom::dist2(a.pos, c));
  const double vol = 4.0 / 3.0 * 3.14159265 * std::pow(std::sqrt(r2max), 3);
  const double density = m.size() / vol;  // atoms per Å³
  EXPECT_GT(density, 0.02);
  EXPECT_LT(density, 0.4);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GenerateSizes,
                         ::testing::Values(100, 436, 1000, 2260, 5000));

TEST(Generate, NetChargeIsSmall) {
  const Molecule m = generate_protein({.target_atoms = 2000, .seed = 9});
  // Residues are individually near-neutral except charged side chains.
  EXPECT_LT(std::abs(m.net_charge()), 60.0);
  EXPECT_GT(std::abs(m.net_charge()), 1e-6);  // but not artificially zero
}

TEST(Generate, VirusShellIsHollow) {
  const Molecule shell = generate_virus_shell({.target_atoms = 50000,
                                               .seed = 7,
                                               .thickness = 18.0});
  EXPECT_GE(shell.size(), 49000u);
  const auto c = shell.centroid();
  double rmin = 1e30, rmax = 0;
  for (const auto& a : shell.atoms()) {
    const double r = octgb::geom::dist(a.pos, c);
    rmin = std::min(rmin, r);
    rmax = std::max(rmax, r);
  }
  // Hollow: the inner cavity is a substantial fraction of the radius.
  EXPECT_GT(rmin, 0.35 * rmax);
  EXPECT_LT(rmax - rmin, 40.0);  // wall ≈ thickness + residue extent
}

// ---- zdock registry ----------------------------------------------------------

TEST(Zdock, RegistryAnchorsMatchPaper) {
  const auto set = zdock_set();
  ASSERT_EQ(set.size(), 42u);
  EXPECT_EQ(set.front().atoms, 436u);   // smallest
  EXPECT_EQ(set.back().atoms, 16301u);  // the molecule of the 11× anchor
  EXPECT_STREQ(set.front().name, "1PPE_l_b");
  EXPECT_STREQ(set.back().name, "1BGX_l_b");
  // Sorted by size (the figures' x-axis order).
  for (std::size_t i = 1; i < set.size(); ++i)
    EXPECT_GT(set[i].atoms, set[i - 1].atoms);
}

TEST(Zdock, FindBenchmark) {
  EXPECT_NE(find_benchmark("1PPE_l_b"), nullptr);
  EXPECT_EQ(find_benchmark("nonexistent"), nullptr);
}

TEST(Zdock, MakeBenchmarkMoleculeIsDeterministicAndNamed) {
  const Molecule a = make_benchmark_molecule("1PPE_l_b");
  const Molecule b = make_benchmark_molecule("1PPE_l_b");
  EXPECT_EQ(a.name(), "1PPE_l_b");
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GE(a.size(), 436u);
  EXPECT_EQ(a.atom(10).pos, b.atom(10).pos);
  EXPECT_THROW(make_benchmark_molecule("nope"), octgb::util::CheckError);
}

TEST(Zdock, VirusScalesApplyToAtomCounts) {
  const Molecule cmv = make_cmv(0.02);
  EXPECT_NEAR(static_cast<double>(cmv.size()), 0.02 * kCmvAtoms,
              0.02 * kCmvAtoms * 0.05 + 40);
  EXPECT_NE(cmv.name().find("CMV"), std::string::npos);
}

TEST(Pdb, AtomRecordColumnsAreSpecExact) {
  // Verify the fixed-column layout against the PDB 3.3 spec: x in 31-38,
  // y in 39-46, z in 47-54 (1-based), record name in 1-6.
  Molecule m;
  m.add_atom({{12.345, -6.789, 0.001}, 1.7, 0.0, Element::C});
  std::ostringstream out;
  write_pdb(m, out);
  const std::string line = octgb::util::split(out.str(), '\n')[0];
  ASSERT_GE(line.size(), 54u);
  EXPECT_EQ(line.substr(0, 6), "ATOM  ");
  EXPECT_EQ(octgb::util::trim(line.substr(30, 8)), "12.345");
  EXPECT_EQ(octgb::util::trim(line.substr(38, 8)), "-6.789");
  EXPECT_EQ(octgb::util::trim(line.substr(46, 8)), "0.001");
}

TEST(Pdb, SerialAndResseqClampForHugeMolecules) {
  // Serial is a 5-digit field, resSeq 4 digits: writers must clamp, not
  // corrupt neighboring columns.
  Molecule m;
  AtomLabel label;
  label.serial = 1234567;
  label.residue_seq = 123456;
  label.atom_name = " CA ";
  label.residue_name = "ALA";
  m.add_atom({{1, 2, 3}, 1.7, 0.0, Element::C}, label);
  std::ostringstream out;
  write_pdb(m, out);
  const std::string line = octgb::util::split(out.str(), '\n')[0];
  // The coordinate columns must still parse.
  EXPECT_NO_THROW({
    std::istringstream in(out.str());
    const Molecule parsed = read_pdb(in);
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_NEAR(parsed.atom(0).pos.x, 1.0, 1e-9);
  });
}

TEST(Generate, CompactnessControlsDensity) {
  const auto loose = generate_protein(
      {.target_atoms = 800, .seed = 31, .compactness = 0.5});
  const auto dense = generate_protein(
      {.target_atoms = 800, .seed = 31, .compactness = 2.0});
  auto radius_of = [](const Molecule& m) {
    const auto c = m.centroid();
    double r2 = 0;
    for (const auto& a : m.atoms())
      r2 = std::max(r2, octgb::geom::dist2(a.pos, c));
    return std::sqrt(r2);
  };
  EXPECT_GT(radius_of(loose), radius_of(dense));
}
