#pragma once
/// \file dispatch.hpp
/// Runtime dispatch table of the explicit vector layer (DESIGN.md §2.7).
///
/// Each supported width is compiled in its own translation unit with the
/// matching ISA flags (src/simd/kernels_v128.cpp / _v256.cpp / _v512.cpp)
/// and exposes exactly one symbol: a factory returning a KernelSet of
/// plain function pointers. The kernel templates themselves live in an
/// anonymous namespace inside each TU, so no vague-linkage instantiation
/// compiled with, say, AVX-512 flags can leak into a binary path that runs
/// on a narrower CPU (the classic multi-ISA ODR trap).
///
/// Callers never branch on width. In the core, the one caller is the
/// near-field selector (src/core/near_field.hpp): it resolves an
/// EngineConfig's VectorParams once per call (simd::resolve), fetches the
/// KernelSet for the resolved ISA, and streams the SoA leaf planes
/// through it. `kernels(VectorIsa::Scalar)` is nullptr by design — the
/// autovectorized batch kernels remain the reference implementation, and
/// the selector substitutes the core's scalar table built from them.

#include <cstdint>

#include "octgb/core/batch_kernels.hpp"
#include "octgb/simd/types.hpp"

namespace octgb::simd {

/// Function-pointer table of one compiled width. All kernels compute the
/// same mathematical sums as their scalar references in core/batch_kernels
/// and core/epol; `Double` entries differ only by reassociation (vector
/// body + pairwise lane reduction + scalar remainder tail), `Mixed`
/// entries additionally carry float rounding on the streamed operands.
/// Every entry is deterministic: same inputs → same bits, run to run.
struct KernelSet {
  using BornFn = double (*)(double ax, double ay, double az,
                            const core::QPointBatch& q);
  using BornMixedFn = double (*)(double ax, double ay, double az,
                                 const core::QPointBatchF& q);
  using EpolFn = double (*)(double vx, double vy, double vz, double qv,
                            double rv, const core::AtomBatch& atoms);
  using EpolMixedFn = double (*)(double vx, double vy, double vz, double qv,
                                 double rv, const core::AtomBatchF& atoms);
  /// Bin-pair far field over one (u-node, v-node) charge-by-bin table
  /// pair: Σ ub[i]·vb[j] / f_GB(d², rep_u[i]·rep_v[j]) over the nonzero
  /// inclusive bin ranges, replicating EpolPass::far_field's node path.
  /// `binpairs` is incremented by exactly the count the scalar loop would
  /// report (pairs of nonzero bins), keeping epol.bins width-invariant.
  using FarBinsFn = double (*)(const double* ub, int ulo, int uhi,
                               const double* rep_u, const double* vb, int vlo,
                               int vhi, const double* rep_v, double d2,
                               std::uint64_t& binpairs);

  BornFn born_integral = nullptr;        ///< exact r⁻⁶ surface integral
  BornFn born_integral_fast = nullptr;   ///< approx_math variant
  BornMixedFn born_integral_mixed = nullptr;  ///< float streams, exact math
  EpolFn epol_sum = nullptr;             ///< exact f_GB pair sum
  EpolFn epol_sum_fast = nullptr;        ///< approx_math variant
  EpolMixedFn epol_sum_mixed = nullptr;  ///< float streams, exact math
  FarBinsFn epol_far_bins = nullptr;      ///< exact bin-pair far field
  FarBinsFn epol_far_bins_fast = nullptr;  ///< approx_math variant

  int lanes = 0;        ///< double lanes per vector iteration
  int float_lanes = 0;  ///< mixed-mode float lanes (2 × lanes)
  const char* name = "scalar";  ///< "v128" / "v256" / "v512"
};

/// Widest ISA whose translation unit was compiled into this binary
/// (OCTGB_SIMD_MAX_ISA CMake option; V512 in the default build).
VectorIsa max_built_isa();

/// True when `isa`'s kernels are both compiled in and runnable on this
/// CPU. VectorIsa::Scalar is always available; Auto is not a concrete
/// width and returns false.
bool isa_available(VectorIsa isa);

/// Resolve a requested ISA to a concrete one: Auto → the widest available
/// width up to 256 bits (512-bit execution downclocks or is emulated on
/// many parts, so AVX-512 is explicit opt-in — see dispatch.cpp); an
/// explicit width that is not available clamps down to the widest
/// available one (ultimately Scalar). Deterministic per process — CPU
/// detection is cached, so every call site resolving the same request
/// during one evaluation agrees.
VectorIsa resolve_isa(VectorIsa requested);

/// Resolve a full VectorParams (isa as above; precision passes through).
/// Engine paths resolve once per evaluation and stamp the *resolved*
/// params into the Born cache, so cache-validity comparisons never depend
/// on how the request was spelled.
VectorParams resolve(VectorParams requested);

/// Kernel table for a *concrete* resolved ISA; nullptr for Scalar (use
/// the legacy batch kernels). Auto or an unavailable width is resolved
/// first, so this never returns a table the CPU cannot execute.
const KernelSet* kernels(VectorIsa isa);

/// Human-readable name ("auto", "scalar", "v128", ...), for labels,
/// metrics and test output.
const char* isa_name(VectorIsa isa);

/// Double lanes of a resolved ISA (0 for Scalar — no explicit vector
/// body). Convenience over kernels(isa)->lanes for metrics code.
int lanes(VectorIsa isa);

namespace detail {
/// Per-TU factories. Defined in kernels_v*.cpp; only the ones selected by
/// OCTGB_SIMD_MAX_ISA exist. Do not call directly — dispatch.cpp owns the
/// availability logic.
const KernelSet* make_kernels_v128();
const KernelSet* make_kernels_v256();
const KernelSet* make_kernels_v512();
}  // namespace detail

}  // namespace octgb::simd
