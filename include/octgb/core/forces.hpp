#pragma once
/// \file forces.hpp
/// Gradients of the GB polarization energy — what an MD integrator or a
/// minimizer consumes (the paper's motivation: "molecular dynamics
/// simulations for determining the molecular conformation with minimal
/// total free energy").
///
/// With the standard fixed-Born-radii approximation (radii treated as
/// constants during differentiation, as MD packages do between radius
/// updates), Eq. 2 differentiates in closed form:
///
///   ∇_i Epol = τ Σ_{j≠i} q_i q_j (1 − e^{−r²/4D}/4) (x_i − x_j) / f_GB³,
///   D = R_i R_j.
///
/// Two evaluators: the exact O(M²) sum and an octree-accelerated version
/// using the same leaf-versus-tree structure and Born-radius binning as
/// APPROX-EPOL.

#include <span>
#include <vector>

#include "octgb/core/engine.hpp"
#include "octgb/core/gb_params.hpp"

namespace octgb::core {

/// Exact pairwise forces F = −∇Epol (input order, kcal/mol/Å). `born` in
/// input order.
std::vector<geom::Vec3> naive_epol_forces(const mol::Molecule& mol,
                                          std::span<const double> born,
                                          const GBParams& gb = {},
                                          perf::WorkCounters* counters =
                                              nullptr);

/// Octree-accelerated forces over a prebuilt engine. `born_input_order`
/// must match the engine's molecule. Returns forces in input order. The
/// walk is the energy's, opened at epol_force_threshold(ε).
std::vector<geom::Vec3> approx_epol_forces(
    const GBEngine& engine, std::span<const double> born_input_order,
    perf::WorkCounters& counters);

/// The scalar pair kernel g(r², D) with ∇_i E = τ q_i q_j g · (x_i − x_j):
/// g = (1 − e^{−r²/4D}/4) / f_GB³. Exposed for tests.
double epol_force_kernel(double r2, double ri_rj);

}  // namespace octgb::core
