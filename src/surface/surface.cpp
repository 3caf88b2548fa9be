#include "octgb/surface/surface.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "octgb/geom/aabb.hpp"
#include "octgb/geom/mesh.hpp"
#include "octgb/geom/quadrature.hpp"
#include "octgb/octree/morton.hpp"
#include "octgb/util/check.hpp"
#include "octgb/ws/scheduler.hpp"
#include "octgb/ws/sort.hpp"

namespace octgb::surface {

namespace {

using geom::Vec3;

/// Atoms per sampling chunk. Fixed, so chunk boundaries — and with them
/// every chunk's output offset — never depend on the worker count.
constexpr std::uint32_t kChunkAtoms = 128;

/// Candidate points below which a call outside any scheduler stays serial
/// (a private pool costs more to start than it saves).
constexpr std::size_t kPrivatePoolCandidates = std::size_t{1} << 15;

/// Margin δ (Å) on the pair-exact blocker filter. A point p of atom i lies
/// at |p − c_i| = r_i up to a few ulps of its coordinates (about 1e-8 Å at
/// 1e7 Å), so any atom j that buries p has |c_i − c_j| < r_i + s·r_j + δ.
constexpr double kBlockerMargin = 1e-6;

void check_atoms(std::span<const mol::Atom> atoms) {
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    const mol::Atom& a = atoms[i];
    const std::pair<const char*, double> fields[] = {
        {"x", a.pos.x}, {"y", a.pos.y}, {"z", a.pos.z}, {"radius", a.radius}};
    for (const auto& [name, v] : fields)
      OCTGB_CHECK_MSG(std::isfinite(v), "build_surface: atom "
                                            << i << " has non-finite " << name
                                            << " (" << v << ")");
    OCTGB_CHECK_MSG(a.radius >= 0.0, "build_surface: atom "
                                         << i << " has negative radius ("
                                         << a.radius << ")");
  }
}

/// Atom centers bucketed by grid cell: Morton keys sorted once, plus one
/// CSR of cell ranges. Cells are at least `reach` wide, so a query box of
/// half-width ≤ reach spans at most 3 cells per axis.
class CellList {
 public:
  CellList(std::span<const mol::Atom> atoms, double reach) {
    const std::size_t n = atoms.size();
    geom::Aabb box;
    for (const auto& a : atoms) box.expand(a.pos);
    // Cells of side `reach`, coarsened only where 21 bits per axis cannot
    // span the box (far-apart clusters): never aliased.
    const double side = box.max_extent();
    grid_.origin = box.lo;
    grid_.cell = std::max(
        reach, side / static_cast<double>(1u << octree::kMortonMaxBits));
    while (grid_.bits < octree::kMortonMaxBits &&
           static_cast<double>(grid_.side()) * grid_.cell <= side)
      ++grid_.bits;

    struct KeyId {
      std::uint64_t key;
      std::uint32_t id;
    };
    std::vector<KeyId> pairs(n);
    for (std::size_t i = 0; i < n; ++i)
      pairs[i] = {grid_.key(atoms[i].pos), static_cast<std::uint32_t>(i)};
    // (key, id) is a strict total order: the sort is deterministic.
    ws::parallel_sort(std::span<KeyId>(pairs),
                      [](const KeyId& a, const KeyId& b) {
                        return a.key != b.key ? a.key < b.key : a.id < b.id;
                      });
    ids_.resize(n);
    centers_.resize(n);
    radii_.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      ids_[k] = pairs[k].id;
      centers_[k] = atoms[pairs[k].id].pos;
      radii_[k] = atoms[pairs[k].id].radius;
      if (k == 0 || pairs[k].key != pairs[k - 1].key) {
        keys_.push_back(pairs[k].key);
        starts_.push_back(static_cast<std::uint32_t>(k));
      }
    }
    starts_.push_back(static_cast<std::uint32_t>(n));
  }

  /// Call `f(id, center, radius)` for every atom whose cell meets the box
  /// c ± range.
  template <class F>
  void for_each_near(const Vec3& c, double range, F&& f) const {
    const Vec3& o = grid_.origin;
    const std::uint32_t x0 = grid_.quantize(c.x - range, o.x);
    const std::uint32_t x1 = grid_.quantize(c.x + range, o.x);
    const std::uint32_t y0 = grid_.quantize(c.y - range, o.y);
    const std::uint32_t y1 = grid_.quantize(c.y + range, o.y);
    const std::uint32_t z0 = grid_.quantize(c.z - range, o.z);
    const std::uint32_t z1 = grid_.quantize(c.z + range, o.z);
    for (std::uint32_t z = z0; z <= z1; ++z)
      for (std::uint32_t y = y0; y <= y1; ++y)
        for (std::uint32_t x = x0; x <= x1; ++x) {
          const std::uint64_t key = octree::morton_encode(x, y, z);
          const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
          if (it == keys_.end() || *it != key) continue;
          const auto cell = static_cast<std::size_t>(it - keys_.begin());
          for (std::uint32_t k = starts_[cell]; k < starts_[cell + 1]; ++k)
            f(ids_[k], centers_[k], radii_[k]);
        }
  }

 private:
  octree::MortonGrid grid_;
  std::vector<std::uint64_t> keys_;     ///< sorted unique cell keys
  std::vector<std::uint32_t> starts_;   ///< CSR: cell c is [starts_[c], starts_[c+1])
  // Atoms in cell order: ids, centers and radii, so a cell's atoms are
  // read contiguously.
  std::vector<std::uint32_t> ids_;
  std::vector<Vec3> centers_;
  std::vector<double> radii_;
};

/// A sphere that may bury points: center and squared scaled radius.
struct Blocker {
  Vec3 c;
  double r2;
};

/// Unit normal of every candidate point, the same for every atom: rule
/// point k of triangle t, projected onto the sphere, at [t·|rule| + k].
std::vector<Vec3> candidate_dirs(const geom::TriMesh& unit,
                                 std::span<const geom::TriQuadPoint> rule) {
  std::vector<Vec3> dirs;
  dirs.reserve(unit.triangles.size() * rule.size());
  for (const auto& tri : unit.triangles)
    for (const auto& q : rule)
      dirs.push_back((unit.vertices[tri.v0] * q.a +
                      unit.vertices[tri.v1] * q.b +
                      unit.vertices[tri.v2] * q.c)
                         .normalized());
  return dirs;
}

/// Everything per-atom sampling reads; built once per call. Candidate k of
/// atom i has bit i·candidates() + k in the exposure mask.
struct Sampler {
  std::span<const mol::Atom> atoms;
  const geom::TriMesh& unit;
  std::span<const geom::TriQuadPoint> rule;
  std::vector<Vec3> dirs;  ///< candidate_dirs(unit, rule)
  double area_correction;
  double max_radius;
  const CellList& cells;

  std::size_t candidates() const { return dirs.size(); }

  /// Burial pass: set atom `ai`'s bit for every exposed candidate in
  /// `exposed` and return how many there are. `blockers` is caller scratch.
  std::size_t mark_atom(std::uint32_t ai, std::vector<Blocker>& blockers,
                        std::uint64_t* exposed) const {
    const mol::Atom& atom = atoms[ai];
    const double r = atom.radius;
    // Pair-exact blocker list: atom j can bury a point of atom i only if
    // |c_i − c_j| < r_i + s·r_j (+ δ for rounding).
    blockers.clear();
    cells.for_each_near(
        atom.pos,
        r + SurfaceParams::burial_scale * max_radius + kBlockerMargin,
        [&](std::uint32_t j, const Vec3& cj, double radius_j) {
          if (j == ai) return;
          const double rj = radius_j * SurfaceParams::burial_scale;
          const double reach = r + rj + kBlockerMargin;
          if (geom::dist2(atom.pos, cj) < reach * reach)
            blockers.push_back({cj, rj * rj});
        });

    std::size_t last = 0;  // the last burying blocker is probed first
    const auto buried = [&](const Vec3& p) {
      if (blockers.empty()) return false;
      if (geom::dist2(p, blockers[last].c) < blockers[last].r2) return true;
      for (std::size_t k = 0; k < blockers.size(); ++k)
        if (k != last && geom::dist2(p, blockers[k].c) < blockers[k].r2) {
          last = k;
          return true;
        }
      return false;
    };

    std::size_t count = 0;
    const std::size_t bit0 = ai * candidates();
    for (std::size_t k = 0; k < candidates(); ++k) {
      // Position on the curved sphere patch (projected), normal radial.
      if (buried(atom.pos + dirs[k] * r)) continue;
      const std::size_t bit = bit0 + k;
      exposed[bit / 64] |= std::uint64_t{1} << (bit % 64);
      ++count;
    }
    return count;
  }

  /// Emit pass: write atom `ai`'s exposed points into `out` from `at`;
  /// return the offset after them. Recomputes each point with the burial
  /// pass's expression, so positions carry the same bits.
  std::size_t emit_atom(std::uint32_t ai, const std::uint64_t* exposed,
                        Surface& out, std::size_t at) const {
    const mol::Atom& atom = atoms[ai];
    const double r = atom.radius;
    const std::size_t nq = rule.size();
    const std::size_t bit0 = ai * candidates();
    for (std::size_t t = 0; t < unit.triangles.size(); ++t) {
      double area = -1.0;  // computed on the triangle's first exposed point
      for (std::size_t k = 0; k < nq; ++k) {
        const std::size_t bit = bit0 + t * nq + k;
        if (((exposed[bit / 64] >> (bit % 64)) & 1) == 0) continue;
        if (area < 0.0) {
          // Vertices on the unit sphere double as outward normals; the
          // sphere triangle is the flat facet scaled to radius r.
          const auto& tri = unit.triangles[t];
          const Vec3 v0 = atom.pos + unit.vertices[tri.v0] * r;
          const Vec3 v1 = atom.pos + unit.vertices[tri.v1] * r;
          const Vec3 v2 = atom.pos + unit.vertices[tri.v2] * r;
          area = geom::triangle_area(v0, v1, v2) * area_correction;
        }
        const Vec3& dir = dirs[t * nq + k];
        out.positions[at] = atom.pos + dir * r;
        out.normals[at] = dir;
        out.weights[at] = rule[k].w * area;
        out.owner_atom[at] = ai;
        ++at;
      }
    }
    return at;
  }
};

}  // namespace

double Surface::total_area() const {
  double a = 0.0;
  for (double w : weights) a += w;
  return a;
}

std::size_t Surface::footprint_bytes() const {
  return positions.capacity() * sizeof(geom::Vec3) +
         normals.capacity() * sizeof(geom::Vec3) +
         weights.capacity() * sizeof(double) +
         owner_atom.capacity() * sizeof(std::uint32_t);
}

Surface build_surface(const mol::Molecule& mol, const SurfaceParams& params) {
  OCTGB_CHECK_MSG(params.subdivision >= 0 && params.subdivision <= 5,
                  "subdivision out of range");
  Surface out;
  const auto atoms = mol.atoms();
  check_atoms(atoms);
  if (atoms.empty()) return out;

  const geom::TriMesh& unit = geom::icosphere(params.subdivision);
  const auto rule = geom::dunavant_rule(params.quad_degree);
  double max_radius = 0.0;
  for (const auto& a : atoms) max_radius = std::max(max_radius, a.radius);
  const std::size_t n = atoms.size();
  const std::size_t candidates = n * unit.num_triangles() * rule.size();

  ws::with_workers(candidates, kPrivatePoolCandidates, [&](bool parallel) {
    const CellList cells(
        atoms,
        (1.0 + SurfaceParams::burial_scale) * max_radius + kBlockerMargin);
    // Scale flat-facet areas so a full sphere integrates to exactly 4πr².
    const Sampler s{atoms,
                    unit,
                    rule,
                    candidate_dirs(unit, rule),
                    4.0 * std::numbers::pi / unit.area(),
                    max_radius,
                    cells};

    // Fixed atom chunks; serial calls take the whole range as one grain,
    // i.e. inline. Chunk c's mask bits start at bit 128·c·candidates, a
    // multiple of 64, so no two chunks share a mask word.
    const auto chunks = static_cast<std::int64_t>(
        (n + kChunkAtoms - 1) / kChunkAtoms);
    const std::int64_t grain = parallel ? 1 : chunks;
    const auto atom_range = [&](std::size_t c) {
      return std::pair{c * kChunkAtoms, std::min(n, (c + 1) * kChunkAtoms)};
    };
    // chunk: the burial pass marks and counts each chunk's exposed
    // candidates; it is the only pass that runs the burial test.
    std::vector<std::uint64_t> exposed((candidates + 63) / 64, 0);
    std::vector<std::size_t> offset(static_cast<std::size_t>(chunks) + 1, 0);
    ws::Scheduler::parallel_for(
        0, chunks, grain, [&](std::int64_t lo, std::int64_t hi) {
          std::vector<Blocker> blockers;
          for (auto c = static_cast<std::size_t>(lo);
               c < static_cast<std::size_t>(hi); ++c) {
            const auto [begin, end] = atom_range(c);
            for (std::size_t i = begin; i < end; ++i)
              offset[c + 1] += s.mark_atom(static_cast<std::uint32_t>(i),
                                           blockers, exposed.data());
          }
        });
    // scan: an exclusive scan of chunk counts gives each chunk's offset.
    for (std::size_t c = 0; c < static_cast<std::size_t>(chunks); ++c)
      offset[c + 1] += offset[c];
    const std::size_t total = offset.back();
    out.positions.resize(total);
    out.normals.resize(total);
    out.weights.resize(total);
    out.owner_atom.resize(total);
    // place: each chunk writes its points into the exact-size planes.
    ws::Scheduler::parallel_for(
        0, chunks, grain, [&](std::int64_t lo, std::int64_t hi) {
          for (auto c = static_cast<std::size_t>(lo);
               c < static_cast<std::size_t>(hi); ++c) {
            const auto [begin, end] = atom_range(c);
            std::size_t at = offset[c];
            for (std::size_t i = begin; i < end; ++i)
              at = s.emit_atom(static_cast<std::uint32_t>(i), exposed.data(),
                               out, at);
          }
        });
  });
  return out;
}

}  // namespace octgb::surface
