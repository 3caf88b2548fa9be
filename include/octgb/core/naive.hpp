#pragma once
/// \file naive.hpp
/// Naïve exact reference implementations of Equations 2 and 4: the O(M·N)
/// Born-radius sum and the O(M²) GB energy. These are the ground truth the
/// paper's "% of error" columns are measured against (Fig. 9–11), and the
/// worst bar of Fig. 8.

#include <span>
#include <vector>

#include "octgb/core/gb_params.hpp"
#include "octgb/mol/molecule.hpp"
#include "octgb/perf/counters.hpp"
#include "octgb/surface/surface.hpp"

namespace octgb::core {

/// Exact surface-based r⁶ Born radii (Eq. 4 + the intrinsic-radius clamp),
/// one entry per atom in input order. `kernel` selects the inner loop:
/// Batched (default) gathers the surface into SoA scratch once and sweeps
/// it with batch_born_integral; Scalar is the original AoS loop. The two
/// differ only by floating-point reassociation. Under an active
/// ws::Scheduler the atoms are split across its workers; every radius is
/// its own sum, so the result is bitwise the serial one.
std::vector<double> naive_born_radii(const mol::Molecule& mol,
                                     const surface::Surface& surf,
                                     perf::WorkCounters* counters = nullptr,
                                     KernelKind kernel = KernelKind::Batched);

/// Exact GB polarization energy (Eq. 2) over all ordered atom pairs,
/// including the i = j self terms. `born` is in input order. The batched
/// kernel evaluates the full ordered-pair sum row by row (diagonal
/// included); the scalar path sums diagonal + 2 × unordered off-diagonal
/// pairs — identical up to reassociation. Under an active ws::Scheduler
/// the batched rows are computed in parallel and added in row order, so
/// the result is bitwise the serial one; the scalar path stays serial.
double naive_epol(const mol::Molecule& mol, std::span<const double> born,
                  const GBParams& gb = {},
                  perf::WorkCounters* counters = nullptr,
                  KernelKind kernel = KernelKind::Batched);

/// Finalize one Born radius from its accumulated surface integral S
/// (Fig. 2, PUSH-INTEGRALS-TO-ATOMS line 1): R = max(r_vdw, (S/4π)^(−1/3)).
/// Non-positive integrals (possible for badly buried atoms under coarse
/// sampling) clamp to kMaxBornRadius.
double finalize_born_radius(double integral, double vdw_radius,
                            bool approx_math = false);

/// Upper clamp for degenerate Born radii (Å).
inline constexpr double kMaxBornRadius = 1000.0;

}  // namespace octgb::core
