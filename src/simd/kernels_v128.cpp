// 128-bit (2 double lanes) kernels — the portable width — and the
// width-1 kernels of the Scalar ISA.
// Compiled with the build's baseline flags only (SSE2 on x86-64, NEON on
// aarch64, plain scalar expansion elsewhere), plus -fno-math-errno and
// -ffp-contract=off (see src/simd/CMakeLists.txt). Everything from
// kernels_impl.hpp lands in an anonymous namespace so these
// instantiations can never be merged with the AVX2 TU's.

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
const KernelSet* make_kernels_scalar() {
  static const KernelSet ks = make_kernel_set<1>("scalar");
  return &ks;
}

const KernelSet* make_kernels_v128() {
  static const KernelSet ks = make_kernel_set<2>("v128");
  return &ks;
}
}  // namespace detail
}  // namespace octgb::simd
