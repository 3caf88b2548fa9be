// Tests for the molecular surface sampler.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <string>
#include <unordered_map>

#include "octgb/geom/mesh.hpp"
#include "octgb/geom/quadrature.hpp"
#include "octgb/mol/generate.hpp"
#include "octgb/mol/zdock.hpp"
#include "octgb/surface/surface.hpp"
#include "octgb/util/check.hpp"
#include "octgb/ws/scheduler.hpp"
#include "support/sphere_surface.hpp"

using namespace octgb;
using test_support::build_sphere_surface;
using surface::build_surface;
using surface::Surface;
using surface::SurfaceParams;

namespace {

// ---- serial oracle ----------------------------------------------------------
// The sampler as it ran before it went parallel: one loop over atoms in
// index order, blockers gathered from a hash grid within r_i + r_max of the
// atom's center, and the burial test over that whole list. build_surface
// must reproduce its output byte for byte.
namespace oracle {

using geom::Vec3;

class AtomGrid {
 public:
  AtomGrid(std::span<const mol::Atom> atoms, double cell)
      : atoms_(atoms), inv_(1.0 / cell) {
    for (std::uint32_t i = 0; i < atoms.size(); ++i)
      cells_[key_of(atoms[i].pos)].push_back(i);
  }

  void collect(const Vec3& p, double range,
               std::vector<std::uint32_t>& out) const {
    out.clear();
    const long r = static_cast<long>(std::ceil(range * inv_));
    const long cx = coord(p.x), cy = coord(p.y), cz = coord(p.z);
    const double range2 = range * range;
    for (long dx = -r; dx <= r; ++dx)
      for (long dy = -r; dy <= r; ++dy)
        for (long dz = -r; dz <= r; ++dz) {
          auto it = cells_.find(pack(cx + dx, cy + dy, cz + dz));
          if (it == cells_.end()) continue;
          for (std::uint32_t j : it->second)
            if (geom::dist2(p, atoms_[j].pos) <= range2) out.push_back(j);
        }
  }

 private:
  long coord(double x) const { return static_cast<long>(std::floor(x * inv_)); }
  static std::uint64_t pack(long x, long y, long z) {
    const std::uint64_t bias = 1u << 20;
    return ((static_cast<std::uint64_t>(x) + bias) << 42) |
           ((static_cast<std::uint64_t>(y) + bias) << 21) |
           (static_cast<std::uint64_t>(z) + bias);
  }
  std::uint64_t key_of(const Vec3& p) const {
    return pack(coord(p.x), coord(p.y), coord(p.z));
  }

  std::span<const mol::Atom> atoms_;
  double inv_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> cells_;
};

Surface build_surface(const mol::Molecule& mol, const SurfaceParams& params) {
  Surface out;
  const auto atoms = mol.atoms();
  if (atoms.empty()) return out;
  const geom::TriMesh& unit = geom::icosphere(params.subdivision);
  const double area_correction = 4.0 * std::numbers::pi / unit.area();
  const auto rule = geom::dunavant_rule(params.quad_degree);
  double max_radius = 0.0;
  for (const auto& a : atoms) max_radius = std::max(max_radius, a.radius);
  AtomGrid grid(atoms, std::max(2.0 * max_radius, 1.0));
  std::vector<std::uint32_t> blockers;
  for (std::uint32_t i = 0; i < atoms.size(); ++i) {
    const mol::Atom& atom = atoms[i];
    const double r = atom.radius;
    grid.collect(atom.pos, r + max_radius, blockers);
    for (const auto& tri : unit.triangles) {
      const Vec3& u0 = unit.vertices[tri.v0];
      const Vec3& u1 = unit.vertices[tri.v1];
      const Vec3& u2 = unit.vertices[tri.v2];
      const double area = geom::triangle_area(atom.pos + u0 * r,
                                              atom.pos + u1 * r,
                                              atom.pos + u2 * r) *
                          area_correction;
      for (const auto& q : rule) {
        const Vec3 dir = (u0 * q.a + u1 * q.b + u2 * q.c).normalized();
        const Vec3 p = atom.pos + dir * r;
        bool buried = false;
        for (std::uint32_t j : blockers) {
          if (j == i) continue;
          const double rj = atoms[j].radius * params.burial_scale;
          if (geom::dist2(p, atoms[j].pos) < rj * rj) {
            buried = true;
            break;
          }
        }
        if (buried) continue;
        out.positions.push_back(p);
        out.normals.push_back(dir);
        out.weights.push_back(q.w * area);
        out.owner_atom.push_back(i);
      }
    }
  }
  return out;
}

}  // namespace oracle

template <class T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// Size plus all four planes, byte for byte.
void expect_identical(const Surface& want, const Surface& got,
                      const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  EXPECT_TRUE(same_bytes(want.positions, got.positions)) << what;
  EXPECT_TRUE(same_bytes(want.normals, got.normals)) << what;
  EXPECT_TRUE(same_bytes(want.weights, got.weights)) << what;
  EXPECT_TRUE(same_bytes(want.owner_atom, got.owner_atom)) << what;
}

/// build_surface under an ambient scheduler of `workers` workers, or with
/// no ambient scheduler (large inputs then use a private pool) for 0.
Surface sample_with(int workers, const mol::Molecule& m,
                    const SurfaceParams& p) {
  if (workers == 0) return build_surface(m, p);
  Surface s;
  ws::Scheduler sched(workers);
  sched.run([&] { s = build_surface(m, p); });
  return s;
}

/// Oracle vs build_surface at 1, 2 and 4 ambient workers and with none.
void expect_matches_oracle(const mol::Molecule& m, const SurfaceParams& p,
                           const std::string& what) {
  const Surface want = oracle::build_surface(m, p);
  for (int workers : {1, 2, 4, 0})
    expect_identical(want, sample_with(workers, m, p),
                     what + " workers=" + std::to_string(workers));
}

}  // namespace

TEST(Surface, IsolatedSphereAreaIsExact) {
  // The polyhedral-deficit correction makes a full sphere integrate to
  // exactly 4πr² at any subdivision level.
  for (int level = 0; level <= 3; ++level) {
    for (double r : {1.0, 1.7, 3.5}) {
      const Surface s =
          build_sphere_surface({0, 0, 0}, r, {.subdivision = level});
      EXPECT_NEAR(s.total_area(), 4.0 * std::numbers::pi * r * r,
                  1e-9 * r * r)
          << "level=" << level << " r=" << r;
    }
  }
}

TEST(Surface, SphereNormalsAreRadialAndUnit) {
  const Surface s = build_sphere_surface({1, 2, 3}, 2.0, {.subdivision = 1});
  for (std::size_t k = 0; k < s.size(); ++k) {
    EXPECT_NEAR(s.normals[k].norm(), 1.0, 1e-12);
    const geom::Vec3 radial = (s.positions[k] - geom::Vec3{1, 2, 3});
    EXPECT_NEAR(radial.norm(), 2.0, 1e-9);  // points on the sphere
    EXPECT_NEAR(radial.normalized().dot(s.normals[k]), 1.0, 1e-12);
  }
}

TEST(Surface, BornIntegralOfIsolatedSphereRecoversRadius) {
  // (1/4π) Σ w (r−x)·n/|r−x|⁶ must equal 1/R³ for a sphere of radius R —
  // this is the identity the whole r⁶ method rests on.
  for (double R : {1.2, 1.7, 2.5}) {
    const Surface s =
        build_sphere_surface({0, 0, 0}, R, {.subdivision = 2});
    double integral = 0.0;
    for (std::size_t k = 0; k < s.size(); ++k) {
      const geom::Vec3 d = s.positions[k];  // atom at origin
      integral += s.weights[k] * d.dot(s.normals[k]) / std::pow(d.norm2(), 3);
    }
    const double r_est =
        1.0 / std::cbrt(integral / (4.0 * std::numbers::pi));
    EXPECT_NEAR(r_est, R, 1e-9) << "R=" << R;
  }
}

TEST(Surface, QuadratureDegreeMultipliesPointCount) {
  const Surface d1 = build_sphere_surface({0, 0, 0}, 1.5,
                                          {.subdivision = 1, .quad_degree = 1});
  const Surface d2 = build_sphere_surface({0, 0, 0}, 1.5,
                                          {.subdivision = 1, .quad_degree = 2});
  EXPECT_EQ(d2.size(), 3 * d1.size());  // 3-point rule vs 1-point rule
}

TEST(Surface, BuriedPointsAreCulled) {
  // Two overlapping spheres: total exposed area < sum of full areas, and
  // every surviving point lies outside the other sphere.
  mol::Molecule m;
  m.add_atom({{0, 0, 0}, 1.7, 0, mol::Element::C});
  m.add_atom({{1.5, 0, 0}, 1.7, 0, mol::Element::C});
  const Surface s = build_surface(m, {.subdivision = 2});
  const double full = 2.0 * 4.0 * std::numbers::pi * 1.7 * 1.7;
  EXPECT_LT(s.total_area(), 0.95 * full);
  EXPECT_GT(s.total_area(), 0.40 * full);
  for (std::size_t k = 0; k < s.size(); ++k) {
    const auto owner = s.owner_atom[k];
    const auto other = 1 - owner;
    EXPECT_GE(geom::dist(s.positions[k], m.atom(other).pos),
              0.99 * 1.7 - 1e-9);
  }
}

TEST(Surface, DisjointAtomsKeepFullSpheres) {
  mol::Molecule m;
  m.add_atom({{0, 0, 0}, 1.5, 0, mol::Element::C});
  m.add_atom({{100, 0, 0}, 1.5, 0, mol::Element::C});
  const Surface s = build_surface(m, {.subdivision = 1});
  EXPECT_NEAR(s.total_area(), 2 * 4.0 * std::numbers::pi * 1.5 * 1.5, 1e-8);
}

TEST(Surface, FullyBuriedAtomContributesNothing) {
  mol::Molecule m;
  m.add_atom({{0, 0, 0}, 1.0, 0, mol::Element::H});  // inside the big one
  m.add_atom({{0, 0, 0}, 3.0, 0, mol::Element::S});
  const Surface s = build_surface(m, {.subdivision = 1});
  for (std::size_t k = 0; k < s.size(); ++k)
    EXPECT_EQ(s.owner_atom[k], 1u) << "buried atom leaked a point";
  EXPECT_NEAR(s.total_area(), 4.0 * std::numbers::pi * 9.0, 1e-8);
}

TEST(Surface, ProteinSurfaceIsPlausible) {
  const auto m = mol::generate_protein({.target_atoms = 500, .seed = 11});
  const Surface s = build_surface(m, {.subdivision = 1});
  EXPECT_GT(s.size(), m.size());  // several q-points per exposed atom
  // Exposed area below the sum of all spheres, above a single sphere.
  double full = 0;
  for (const auto& a : m.atoms())
    full += 4.0 * std::numbers::pi * a.radius * a.radius;
  EXPECT_LT(s.total_area(), full);
  EXPECT_GT(s.total_area(), 0.02 * full);
  // All weights positive; owners valid.
  for (std::size_t k = 0; k < s.size(); ++k) {
    EXPECT_GT(s.weights[k], 0.0);
    EXPECT_LT(s.owner_atom[k], m.size());
  }
}

TEST(Surface, HigherSubdivisionConvergesToSameArea) {
  const auto m = mol::generate_protein({.target_atoms = 200, .seed = 13});
  const Surface coarse = build_surface(m, {.subdivision = 1});
  const Surface fine = build_surface(m, {.subdivision = 3});
  EXPECT_NEAR(coarse.total_area(), fine.total_area(),
              0.05 * fine.total_area());
}

TEST(Surface, FootprintTracksSize) {
  const auto m = mol::generate_protein({.target_atoms = 300, .seed = 17});
  const Surface s1 = build_surface(m, {.subdivision = 0});
  const Surface s2 = build_surface(m, {.subdivision = 2});
  EXPECT_GT(s2.footprint_bytes(), s1.footprint_bytes());
  // Exact-size planes: position + normal + weight + owner, no slack.
  constexpr std::size_t kPointBytes = 60;
  static_assert(2 * sizeof(geom::Vec3) + sizeof(double) +
                    sizeof(std::uint32_t) ==
                kPointBytes);
  EXPECT_EQ(s1.footprint_bytes(), s1.size() * kPointBytes);
  EXPECT_EQ(s2.footprint_bytes(), s2.size() * kPointBytes);
  const auto big = mol::make_benchmark_molecule("1BGX_r_b");
  const Surface s3 = build_surface(big, {.subdivision = 1});
  EXPECT_EQ(s3.footprint_bytes(), s3.size() * kPointBytes);
}

// ---- input check -------------------------------------------------------------

TEST(Surface, RejectsNonFiniteAndNegativeInput) {
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  const char* fields[] = {"x", "y", "z", "radius"};
  for (double v : bad)
    for (int f = 0; f < 4; ++f) {
      mol::Molecule m;
      m.add_atom({{0, 0, 0}, 1.5, 0, mol::Element::C});
      mol::Atom a{{1, 2, 3}, 1.5, 0, mol::Element::C};
      if (f == 0) a.pos.x = v;
      if (f == 1) a.pos.y = v;
      if (f == 2) a.pos.z = v;
      if (f == 3) a.radius = v;
      m.add_atom(a);
      const std::string what =
          std::string(fields[f]) + " = " + std::to_string(v);
      try {
        (void)build_surface(m);
        ADD_FAILURE() << "accepted " << what;
      } catch (const util::CheckError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("atom 1 "), std::string::npos) << msg;
        EXPECT_NE(msg.find(std::string("non-finite ") + fields[f]),
                  std::string::npos)
            << msg;
      }
    }
  mol::Molecule neg;
  neg.add_atom({{0, 0, 0}, 1.5, 0, mol::Element::C});
  neg.add_atom({{0, 0, 4}, -0.5, 0, mol::Element::C});
  try {
    (void)build_surface(neg);
    ADD_FAILURE() << "accepted a negative radius";
  } catch (const util::CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("atom 1 has negative radius"), std::string::npos)
        << msg;
  }
}

TEST(Surface, ZeroRadiusAtomsKeepSerialOutput) {
  mol::Molecule m;
  m.add_atom({{0, 0, 0}, 0.0, 0, mol::Element::H});
  m.add_atom({{0.5, 0, 0}, 1.5, 0, mol::Element::C});
  m.add_atom({{5, 0, 0}, 0.0, 0, mol::Element::H});
  expect_matches_oracle(m, {.subdivision = 1}, "zero radius");
}

// ---- byte identity against the serial oracle ----------------------------------

/// The perfbench zdock_cold quick selection: every 4th ZDock entry plus the
/// largest.
std::vector<std::string> zdock_quick_selection() {
  const auto all = mol::zdock_set();
  std::vector<std::string> names;
  for (std::size_t i = 0; i < all.size(); i += 4) names.push_back(all[i].name);
  names.push_back(all.back().name);
  return names;
}

class SurfaceZdock : public ::testing::TestWithParam<std::string> {};

TEST_P(SurfaceZdock, ByteIdenticalToSerialOracle) {
  expect_matches_oracle(mol::make_benchmark_molecule(GetParam()),
                        {.subdivision = 1}, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    SurfaceQuickSelection, SurfaceZdock,
    ::testing::ValuesIn(zdock_quick_selection()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      return param_info.param;
    });

TEST(Surface, CmvShellByteIdenticalToSerialOracle) {
  expect_matches_oracle(mol::make_cmv(0.05), {.subdivision = 0}, "CMV'");
}

TEST(Surface, DegenerateGeometryByteIdenticalToSerialOracle) {
  const SurfaceParams p{.subdivision = 2};
  {
    mol::Molecule one;
    one.add_atom({{1, 2, 3}, 1.7, 0, mol::Element::C});
    expect_matches_oracle(one, p, "one atom");
  }
  {
    mol::Molecule twin;
    twin.add_atom({{1, 2, 3}, 1.7, 0, mol::Element::C});
    twin.add_atom({{1, 2, 3}, 1.7, 0, mol::Element::C});
    expect_matches_oracle(twin, p, "coincident pair");
  }
  {
    // Centers exactly r_i + s·r_j apart: the pair filter's boundary.
    const double ri = 1.5, rj = 2.0;
    mol::Molecule tangent;
    tangent.add_atom({{0, 0, 0}, ri, 0, mol::Element::C});
    tangent.add_atom(
        {{ri + p.burial_scale * rj, 0, 0}, rj, 0, mol::Element::S});
    expect_matches_oracle(tangent, p, "tangent pair");
  }
  {
    mol::Molecule chain;
    for (int i = 0; i < 40; ++i)
      chain.add_atom({{1.3 * i, 0, 0}, 1.5 + 0.1 * (i % 3), 0,
                      mol::Element::C});
    expect_matches_oracle(chain, p, "collinear chain");
  }
  {
    // Two clusters about 1e7 Å apart: cell indices past 21 bits.
    const auto near = mol::generate_protein({.target_atoms = 200, .seed = 5});
    mol::Molecule far;
    for (const auto& a : near.atoms()) far.add_atom(a);
    for (auto a : near.atoms()) {
      a.pos = a.pos + geom::Vec3{1e7, -3e6, 7e6};
      far.add_atom(a);
    }
    expect_matches_oracle(far, {.subdivision = 1}, "1e7 apart");
  }
}
