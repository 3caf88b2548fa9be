#include "octgb/baselines/packages.hpp"

#include <array>
#include <cmath>

#include "octgb/perf/machine_model.hpp"
#include "octgb/util/check.hpp"

namespace octgb::baselines {

namespace {

// Calibration notes (constants fitted once to the paper's stated Fig. 8(b)
// anchors, never per molecule):
//  * Amber 12    — HCT over nblist, MPI on 12 cores; heavy startup, so
//                  small molecules are dominated by the constant term.
//  * Gromacs     — HCT, the best-tuned kernels of the group (lowest
//                  per-pair cycles); its advantage over Amber shrinks with
//                  size as pair work dominates (6.2× → 2.7×).
//  * NAMD 2.9    — OBC via the Charm++ runtime; per-pair cost on par with
//                  Amber plus higher startup (max speedup 1.1).
//  * Tinker 6.0  — Still model, OpenMP with modest scaling efficiency:
//                  fast for small inputs (2.1×), falls behind for large.
//  * GBr6        — serial volume method; wins only on tiny inputs (1.14×).
// Memory budgets mirror the paper's observation that Tinker and GBr6 stop
// working past ~12k/~13k atoms (their implementations keep per-pair /
// per-atom-pair tables in double precision).
constexpr std::array<PackageSpec, 5> kPackages = {{
    {"Gromacs 4.5.3", "HCT", BornModel::HCT, false, Parallelism::Distributed,
     14.0, /*per_pair=*/200.0, /*per_atom2=*/190.0, /*eff=*/0.85,
     /*startup=*/0.018},
    {"NAMD 2.9", "OBC", BornModel::OBC, false, Parallelism::Distributed,
     20.0, /*per_pair=*/355.0, /*per_atom2=*/355.0, /*eff=*/0.80,
     /*startup=*/0.250},
    // Amber's GB runs with no interaction cutoff (sander's GB default),
    // so its time scales with all atom pairs; the energy kernel below
    // still evaluates a 20 A list (rgbmax-like), which is what the Fig. 9
    // energies use.
    {"Amber 12", "HCT", BornModel::HCT, false, Parallelism::Distributed,
     20.0, /*per_pair=*/0.0, /*per_atom2=*/540.0, /*eff=*/0.80,
     /*startup=*/0.150},
    {"Tinker 6.0", "STILL", BornModel::Still, false,
     Parallelism::SharedMemory, 20.0, /*per_pair=*/350.0, /*per_atom2=*/0.0,
     /*eff=*/0.25, /*startup=*/0.070},
    {"GBr6", "STILL", BornModel::Still, true, Parallelism::Serial, 20.0,
     /*per_pair=*/10.0, /*per_atom2=*/0.0, /*eff=*/1.0, /*startup=*/0.125},
}};

/// Per-pair bookkeeping bytes of each package's own data structures
/// (pair lists with stored distances etc.); drives the simulated OOM.
double package_bytes_per_pair(const PackageSpec& spec) {
  if (spec.volume_gbr6) return 0.0;
  if (spec.born_model == BornModel::Still) return 24.0;  // Tinker-style
  return 8.0;  // index + distance cache
}

/// Extra per-atom-pair matrix for GBr6 (integral tables, double).
double gbr6_matrix_bytes(std::size_t n) {
  return static_cast<double>(n) * static_cast<double>(n) * 8.0;
}

}  // namespace

std::span<const PackageSpec> package_registry() { return kPackages; }

const PackageSpec* find_package(std::string_view name) {
  for (const auto& p : kPackages)
    if (name == p.name) return &p;
  return nullptr;
}

double cutoff_epol(const mol::Molecule& mol, const octree::NbList& nblist,
                   std::span<const double> born, const core::GBParams& gb,
                   perf::WorkCounters* counters) {
  const auto atoms = mol.atoms();
  OCTGB_CHECK(born.size() == atoms.size());
  double e = 0.0;
  std::uint64_t pairs = 0;
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    e += atoms[i].charge * atoms[i].charge / born[i];
    for (std::uint32_t j : nblist.neighbors(i)) {
      // Ordered pairs: each unordered pair appears twice in the nblist.
      const double r2 = geom::dist2(atoms[i].pos, atoms[j].pos);
      e += atoms[i].charge * atoms[j].charge /
           core::f_gb(r2, born[i] * born[j]);
      ++pairs;
    }
  }
  if (counters) counters->pairlist_pairs += pairs;
  return -0.5 * gb.tau() * e;
}

PackageResult run_package(const PackageSpec& spec, const mol::Molecule& mol,
                          int cores,
                          std::optional<double> cutoff_override,
                          const core::GBParams& gb) {
  PackageResult result;
  if (cores <= 0)
    cores = spec.parallelism == Parallelism::Serial
                ? 1
                : perf::machine::cores_per_node;
  const double cutoff = cutoff_override.value_or(spec.cutoff);
  const std::size_t budget = std::size_t{20} * 1024 * 1024 * 1024;

  try {
    if (spec.volume_gbr6) {
      // GBr6 keeps a full pairwise integral matrix (simulated budget).
      if (gbr6_matrix_bytes(mol.size()) > 1.4e9)
        throw octree::NbListOutOfMemory("GBr6 pairwise integral matrix");
      Gbr6Params gp;
      result.born = gbr6_born_radii(mol, gp, &result.work);
      // Energy still needs pair interactions; GBr6 evaluates Eq. 2 over a
      // cutoff list like the others.
      octree::NbList::Params np{cutoff, budget};
      std::vector<geom::Vec3> centers(mol.size());
      for (std::size_t i = 0; i < mol.size(); ++i)
        centers[i] = mol.atom(i).pos;
      const auto nblist = octree::NbList::build(centers, np);
      result.nblist_bytes = nblist.footprint_bytes() +
                            static_cast<std::size_t>(gbr6_matrix_bytes(
                                mol.size()));
      result.epol = cutoff_epol(mol, nblist, result.born, gb, &result.work);
    } else {
      octree::NbList::Params np{cutoff, budget};
      std::vector<geom::Vec3> centers(mol.size());
      for (std::size_t i = 0; i < mol.size(); ++i)
        centers[i] = mol.atom(i).pos;
      const auto nblist = octree::NbList::build(centers, np);
      // The package's own bookkeeping may exceed its budget even when the
      // raw index list fits (Tinker's ~12k-atom ceiling).
      const double own_bytes =
          static_cast<double>(nblist.total_pairs()) *
          package_bytes_per_pair(spec);
      result.nblist_bytes =
          nblist.footprint_bytes() + static_cast<std::size_t>(own_bytes);
      if (spec.born_model == BornModel::Still && own_bytes > 1.3e9)
        throw octree::NbListOutOfMemory("Tinker pair tables");
      result.born =
          pairwise_born_radii(mol, nblist, spec.born_model, &result.work);
      result.epol = cutoff_epol(mol, nblist, result.born, gb, &result.work);
    }
  } catch (const octree::NbListOutOfMemory&) {
    result.out_of_memory = true;
    return result;
  }

  // Modeled time: startup + (pair work + all-pairs Born term) over the
  // effective cores. The M² term is a timing model only; the computed
  // energies always come from the real cutoff kernels above.
  const double ops = static_cast<double>(result.work.pairlist_pairs) +
                     static_cast<double>(result.work.grid_cells);
  const double m2 =
      static_cast<double>(mol.size()) * static_cast<double>(mol.size());
  const double rate =
      perf::machine::clock_hz * std::max(1.0, cores * spec.parallel_efficiency);
  result.modeled_seconds =
      spec.startup_seconds +
      (ops * spec.per_pair_cycles + m2 * spec.per_atom2_cycles) / rate;
  return result;
}

}  // namespace octgb::baselines
