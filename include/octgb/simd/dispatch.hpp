#pragma once
/// \file dispatch.hpp
/// Runtime dispatch table of the explicit vector layer (DESIGN.md §2.7).
///
/// Every width, the Scalar ISA's width 1 included, is one instantiation
/// of the kernel templates in kernels_impl.hpp, compiled in a translation
/// unit with the matching ISA flags (width 1 and v128 in
/// src/simd/kernels_v128.cpp, v256 in _v256.cpp) and exposed through a
/// factory returning a KernelSet of plain function pointers. The
/// templates live in an anonymous namespace inside each TU, so no
/// vague-linkage instantiation compiled with, say, AVX2 flags can leak
/// into a binary path that runs on a narrower CPU (the classic multi-ISA
/// ODR trap).
///
/// Callers never branch on width. In the core, the callers are the
/// near-field selector (src/core/near_field.hpp), which resolves an
/// EngineConfig's VectorParams once per call (simd::resolve), fetches the
/// KernelSet for the resolved ISA and streams the SoA leaf planes through
/// it, and the naive reference (core/naive.hpp), which runs the Scalar
/// table.

#include <cstdint>

#include "octgb/core/batch_kernels.hpp"
#include "octgb/simd/types.hpp"

namespace octgb::simd {

/// Function-pointer table of one compiled width. Every width computes the
/// same mathematical sums; the widths differ only by reassociation
/// (vector body + pairwise lane reduction + scalar remainder loop) and,
/// in the exact Epol terms, by exp_pd's ≈1 ulp against libm. Every entry
/// is deterministic: same inputs → same bits, run to run.
struct KernelSet {
  using BornFn = double (*)(double ax, double ay, double az,
                            const core::QPointBatch& q);
  using EpolFn = double (*)(double vx, double vy, double vz, double qv,
                            double rv, const core::AtomBatch& atoms);
  /// Second-order bin-pair far field between two nodes U and V whose
  /// centroids are D = c_U − c_V = (dx, dy, dz) apart, d2 = |D|²: over
  /// every pair (i, j) of occupied bins (any moment nonzero), the GB pair
  /// term 1/f_GB at the bin pair's centroids and representative radii
  /// plus its Taylor terms to second order in the atom offsets and the
  /// product of Born radii, closed over the bins' moments Q, S, T, P, U
  /// and Θ (core::detail::far_term, DESIGN.md §2.1). `binpairs` is
  /// incremented by the number of pairs of occupied bins at every width,
  /// keeping epol.bins width-invariant.
  using FarBinsFn = double (*)(const core::BinMoments& u,
                               const core::BinMoments& v, double dx,
                               double dy, double dz, double d2,
                               std::uint64_t& binpairs);

  BornFn born_integral = nullptr;        ///< exact r⁻⁶ surface integral
  BornFn born_integral_fast = nullptr;   ///< approx_math variant
  EpolFn epol_sum = nullptr;             ///< exact f_GB pair sum
  EpolFn epol_sum_fast = nullptr;        ///< approx_math variant
  FarBinsFn epol_far_bins = nullptr;      ///< exact bin-pair far field
  FarBinsFn epol_far_bins_fast = nullptr;  ///< approx_math variant

  int lanes = 0;                ///< double lanes per vector iteration
  const char* name = "scalar";  ///< "scalar" / "v128" / "v256"
};

/// Widest ISA whose translation unit was compiled into this binary
/// (OCTGB_SIMD_MAX_ISA CMake option; V256 in the default build).
VectorIsa max_built_isa();

/// True when `isa`'s kernels are both compiled in and runnable on this
/// CPU. VectorIsa::Scalar is always available; Auto is not a concrete
/// width and returns false.
bool isa_available(VectorIsa isa);

/// Resolve a requested ISA to a concrete one: Auto → the widest available
/// width; an explicit width that is not available clamps down to the
/// widest available one (ultimately Scalar). Deterministic per process —
/// CPU detection is cached, so every call site resolving the same request
/// during one evaluation agrees.
VectorIsa resolve_isa(VectorIsa requested);

/// Resolve a full VectorParams (isa as above). Engine paths resolve once
/// per evaluation and stamp the *resolved* params into the Born cache, so
/// cache-validity comparisons never depend on how the request was
/// spelled.
VectorParams resolve(VectorParams requested);

/// Kernel table of `isa` after resolution; never null (Scalar is the
/// width-1 table). Auto or an unavailable width is resolved first, so
/// this never returns a table the CPU cannot execute.
const KernelSet* kernels(VectorIsa isa);

/// Human-readable name ("auto", "scalar", "v128", ...), for labels,
/// metrics and test output.
const char* isa_name(VectorIsa isa);

/// Double lanes of a resolved ISA (1 for Scalar). Convenience over
/// kernels(isa)->lanes for metrics code.
int lanes(VectorIsa isa);

namespace detail {
/// Per-TU factories. Defined in kernels_v*.cpp; the scalar and v128 ones
/// always exist, v256 only where OCTGB_SIMD_MAX_ISA selects it. Do not
/// call directly — dispatch.cpp owns the availability logic.
const KernelSet* make_kernels_scalar();
const KernelSet* make_kernels_v128();
const KernelSet* make_kernels_v256();
}  // namespace detail

}  // namespace octgb::simd
