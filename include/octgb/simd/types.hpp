#pragma once
/// \file types.hpp
/// Configuration types of the explicit vector layer (DESIGN.md §2.7).
///
/// These live apart from the kernel machinery so that core/gb_params.hpp
/// can embed a VectorParams in ApproxParams without pulling in the batch
/// types or the dispatch table. Everything here is plain data; the
/// behavior sits behind simd/dispatch.hpp.

#include <cstdint>

namespace octgb::simd {

/// Requested vector instruction set for the explicit-SIMD kernels.
///
/// `Auto` resolves to the widest ISA this binary was built with *and* the
/// running CPU supports (see simd::resolve); an explicit width that is not
/// available clamps down to the widest one that is, so a config recorded
/// on an AVX2 host still runs — narrower — everywhere else. `Scalar` is
/// the width-1 instantiation of the same kernels: no vector body, every
/// span runs the sequential scalar loop (the arithmetic the naive
/// reference runs too).
enum class VectorIsa : std::uint8_t {
  Auto,    ///< widest built + supported width (the default)
  Scalar,  ///< 1 lane: the kernels' scalar loop over the whole span
  V128,    ///< 2 double lanes — portable GCC vector code (SSE2 / NEON)
  V256,    ///< 4 double lanes — AVX2+FMA translation unit
};

/// The `EngineConfig::approx.vector` knob: which explicit-SIMD kernels the
/// batched near-field and far-field paths dispatch to. Every width streams
/// and accumulates in double, so numerically this changes results only by
/// reassociation within the documented ε envelopes; it never changes
/// operation counts or the captured interaction-plan structure, which is
/// why it is part of the Born-cache stamp but *not* of the PlanKey
/// (plan.hpp).
struct VectorParams {
  VectorIsa isa = VectorIsa::Auto;

  friend bool operator==(const VectorParams&, const VectorParams&) = default;
};

}  // namespace octgb::simd
