// 256-bit (4 double lanes) kernels, compiled with
// -mavx2 -mfma (plus -fno-math-errno -ffp-contract=off; contraction is
// disabled so each lane stays bit-identical to the scalar reference ops —
// see pack.hpp). Only compiled when the compiler supports the flags and
// OCTGB_SIMD_MAX_ISA allows it; only *executed* when the running CPU
// reports AVX2 (dispatch.cpp). The anonymous namespace keeps these
// AVX2-compiled instantiations out of every other TU's symbol space.

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "octgb/core/fastmath.hpp"
#include "octgb/simd/dispatch.hpp"

namespace octgb::simd {
namespace {
#include "octgb/simd/kernels_impl.hpp"
}  // namespace

namespace detail {
const KernelSet* make_kernels_v256() {
  static const KernelSet ks = make_kernel_set<4>("v256");
  return &ks;
}
}  // namespace detail
}  // namespace octgb::simd
