#pragma once
/// \file packages.hpp
/// Stand-ins for the MD packages of Table II. Each "package" is a real GB
/// computation — pairwise-descreening Born radii over a cutoff nblist plus
/// a cutoff-truncated Eq. 2 energy (or the GBr6 volume method) — together
/// with a *calibration record* that converts its measured operation counts
/// into modeled 12-core wall time on the paper's hardware.
///
/// Honesty note (see DESIGN.md §2): energies, Born radii, pair counts and
/// memory are computed for real; only the per-package constant factors
/// (per-pair cycles, parallel efficiency, startup) are fitted once to the
/// anchors the paper states for Fig. 8(b) — OCT_MPI ≈ 11× Amber at 16,301
/// atoms; Gromacs ≈ 2.7× (max 6.2 at 2,260); NAMD/Tinker/GBr6 max 1.1 /
/// 2.1 / 1.14 — and never adjusted per molecule.

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "octgb/baselines/descreening.hpp"
#include "octgb/baselines/gbr6.hpp"
#include "octgb/core/gb_params.hpp"

namespace octgb::baselines {

/// How a package parallelizes (Table II).
enum class Parallelism { Serial, SharedMemory, Distributed };

/// One comparator package.
struct PackageSpec {
  const char* name;        ///< "Amber 12", …
  const char* gb_model;    ///< "HCT", "OBC", "STILL"
  BornModel born_model;    ///< algorithm for Born radii
  bool volume_gbr6;        ///< use the GBr6 volume method instead
  Parallelism parallelism;
  double cutoff;           ///< nblist cutoff (Å)
  // --- calibration (fitted to the Fig. 8(b) anchors, constant) ----------
  // Modeled time = startup + (pairs·per_pair + M²·per_atom2) / rate.
  // per_atom2_cycles models packages whose Born phase scales with all
  // atom pairs regardless of the energy cutoff (Gromacs 4.5.3's GB and
  // NAMD behave this way in the paper's data: their advantage over Amber
  // shrinks as molecules grow).
  double per_pair_cycles;      ///< cycles per evaluated nblist pair
  double per_atom2_cycles;     ///< cycles per atom² (all-pairs Born term)
  double parallel_efficiency;  ///< fraction of ideal 12-core scaling
  double startup_seconds;      ///< fixed per-run overhead
};

/// The five packages of Table II, in that order.
std::span<const PackageSpec> package_registry();
const PackageSpec* find_package(std::string_view name);

/// Result of running a package on a molecule.
struct PackageResult {
  double epol = 0.0;
  std::vector<double> born;
  perf::WorkCounters work;
  std::size_t nblist_bytes = 0;      ///< pair-list (or grid) memory
  bool out_of_memory = false;        ///< exceeded the 24 GB node budget
  double modeled_seconds = 0.0;      ///< on `cores` cores of the Table I node
};

/// Run a package stand-in. `cores` defaults to the package's natural
/// 12-core configuration (1 for GBr6, per Fig. 8). Cutoff may be
/// overridden (the Fig. 11 CMV experiment reduces it until it fits).
PackageResult run_package(const PackageSpec& spec, const mol::Molecule& mol,
                          int cores = 0,
                          std::optional<double> cutoff_override = {},
                          const core::GBParams& gb = {});

/// Cutoff-truncated GB energy (Eq. 2 restricted to nblist pairs + self
/// terms) — what cutoff-based MD packages actually evaluate.
double cutoff_epol(const mol::Molecule& mol, const octree::NbList& nblist,
                   std::span<const double> born, const core::GBParams& gb,
                   perf::WorkCounters* counters = nullptr);

}  // namespace octgb::baselines
