#include "octgb/perf/machine_model.hpp"

#include <algorithm>
#include <cmath>

namespace octgb::perf::machine {

double cache_factor(double working_set_bytes, int cores_sharing_l3) {
  if (working_set_bytes <= 0.0) return 1.0;
  const double share = l3_bytes / std::max(1, cores_sharing_l3);
  const double pressure = working_set_bytes / share;
  if (pressure <= 1.0) return 1.0;
  // Smooth saturation: factor → cache_miss_penalty as pressure grows.
  const double excess = 1.0 - 1.0 / pressure;  // in (0,1)
  return 1.0 + (cache_miss_penalty - 1.0) * excess;
}

double compute_seconds(const WorkCounters& w, double working_set_bytes,
                       int cores_sharing_l3, bool approx_math) {
  const double math_div = approx_math ? approx_math_speedup : 1.0;
  // Interaction arithmetic benefits from approximate math; traversal and
  // scheduling overheads do not.
  double interact_cycles =
      static_cast<double>(w.born_exact) * cyc_born_exact +
      static_cast<double>(w.born_approx) * cyc_born_approx +
      static_cast<double>(w.epol_exact) * cyc_epol_exact +
      static_cast<double>(w.epol_bins) * cyc_epol_bin +
      static_cast<double>(w.pairlist_pairs) * cyc_pairlist_pair +
      static_cast<double>(w.grid_cells) * cyc_grid_cell +
      static_cast<double>(w.push_atoms) * cyc_push_atom;
  interact_cycles /= math_div;

  const double traversal_cycles =
      static_cast<double>(w.born_visits) * cyc_born_visit +
      static_cast<double>(w.push_visits) * cyc_push_visit +
      static_cast<double>(w.epol_visits) * cyc_epol_visit +
      static_cast<double>(w.spawns) * cyc_spawn +
      static_cast<double>(w.steals) * cyc_steal;

  const double factor = cache_factor(working_set_bytes, cores_sharing_l3);
  return (interact_cycles + traversal_cycles) * factor / clock_hz;
}

}  // namespace octgb::perf::machine
