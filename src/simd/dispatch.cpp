// Runtime ISA resolution for the explicit vector layer. CPU detection is
// done once and cached, so every resolve() during a process lifetime
// agrees — the engine stamps resolved VectorParams into the Born cache
// and relies on that stability.

#include "octgb/simd/dispatch.hpp"

namespace octgb::simd {

namespace {

int rank(VectorIsa isa) {
  switch (isa) {
    case VectorIsa::Scalar:
      return 0;
    case VectorIsa::V128:
      return 1;
    case VectorIsa::V256:
      return 2;
    case VectorIsa::Auto:
      break;
  }
  return -1;
}

VectorIsa detect_cpu_widest() {
#if defined(__x86_64__) || defined(_M_X64)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return VectorIsa::V256;
  return VectorIsa::V128;  // SSE2 is the x86-64 baseline
#else
  // NEON on aarch64; plain GCC vector expansion elsewhere. Either way the
  // 128-bit TU is always correct to run.
  return VectorIsa::V128;
#endif
}

VectorIsa widest_available() {
  static const VectorIsa widest = [] {
    const VectorIsa cpu = detect_cpu_widest();
    const VectorIsa built = max_built_isa();
    return rank(cpu) < rank(built) ? cpu : built;
  }();
  return widest;
}

}  // namespace

VectorIsa max_built_isa() {
#if defined(OCTGB_SIMD_HAS_V256)
  return VectorIsa::V256;
#else
  return VectorIsa::V128;
#endif
}

bool isa_available(VectorIsa isa) {
  if (isa == VectorIsa::Scalar) return true;
  if (isa == VectorIsa::Auto) return false;
  return rank(isa) <= rank(widest_available());
}

VectorIsa resolve_isa(VectorIsa requested) {
  if (requested == VectorIsa::Scalar) return VectorIsa::Scalar;
  const VectorIsa widest = widest_available();
  if (requested == VectorIsa::Auto) return widest;
  return rank(requested) <= rank(widest) ? requested : widest;
}

VectorParams resolve(VectorParams requested) {
  requested.isa = resolve_isa(requested.isa);
  return requested;
}

const KernelSet* kernels(VectorIsa isa) {
  switch (resolve_isa(isa)) {
    case VectorIsa::V128:
      return detail::make_kernels_v128();
#if defined(OCTGB_SIMD_HAS_V256)
    case VectorIsa::V256:
      return detail::make_kernels_v256();
#endif
    default:
      return detail::make_kernels_scalar();
  }
}

const char* isa_name(VectorIsa isa) {
  switch (isa) {
    case VectorIsa::Auto:
      return "auto";
    case VectorIsa::Scalar:
      return "scalar";
    case VectorIsa::V128:
      return "v128";
    case VectorIsa::V256:
      return "v256";
  }
  return "?";
}

int lanes(VectorIsa isa) { return kernels(isa)->lanes; }

}  // namespace octgb::simd
