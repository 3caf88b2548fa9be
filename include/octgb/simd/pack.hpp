// \file pack.hpp
// Vector primitives of the explicit SIMD layer (DESIGN.md §2.7).
//
// DELIBERATELY NOT a normal header: this file is textually #included
// INSIDE an anonymous namespace by kernels_impl.hpp, which is itself
// included inside each per-ISA translation unit (src/simd/kernels_v*.cpp).
// Every type and function here therefore gets internal linkage, one
// private copy per TU — the only safe arrangement when the same
// templates are compiled under different -m ISA flags (a vague-linkage
// instantiation shared across TUs could bind every TU to, say, the
// AVX2 copy and SIGILL on narrower CPUs).
//
// Consequently this file must not include anything itself; the enclosing
// TU provides <cmath>, <cstdint>, <cstddef> and the octgb headers at
// global scope before entering the namespace.
//
// The lane model: GCC/Clang generic vector extensions with fixed widths —
// N ∈ {2, 4} double lanes per vector. The compiler maps them onto
// whatever the TU's ISA flags allow (SSE2 or NEON for N=2, AVX2 for N=4).
// All TUs are compiled with -ffp-contract=off so every multiply/add
// rounds individually; this makes each vector lane bit-identical to the
// corresponding scalar expression, which the remainder-tail and splice
// properties in simd_diff_test rely on.

#ifndef OCTGB_SIMD_PACK_INCLUDED
#define OCTGB_SIMD_PACK_INCLUDED

typedef double vd2 __attribute__((vector_size(16)));
typedef double vd4 __attribute__((vector_size(32)));
typedef std::uint64_t vu2 __attribute__((vector_size(16)));
typedef std::uint64_t vu4 __attribute__((vector_size(32)));
typedef std::int64_t vq2 __attribute__((vector_size(16)));
typedef std::int64_t vq4 __attribute__((vector_size(32)));

/// Lane-type bundle for a width of N double lanes.
template <int N>
struct lanes_of;
template <>
struct lanes_of<2> {
  using vd = vd2;
  using vu = vu2;
  using vq = vq2;
};
template <>
struct lanes_of<4> {
  using vd = vd4;
  using vu = vu4;
  using vq = vq4;
};

/// Broadcast a scalar into every lane.
template <class V, class T>
inline V bc(T x) {
  V r = {};
  constexpr int n = static_cast<int>(sizeof(V) / sizeof(T));
  for (int i = 0; i < n; ++i) r[i] = x;
  return r;
}

/// Unaligned load of one vector's worth of elements.
template <class V, class T>
inline V loadu(const T* p) {
  V r;
  __builtin_memcpy(&r, p, sizeof(V));
  return r;
}

/// Deterministic pairwise horizontal sum: halves are added as vectors,
/// then the final two lanes as scalars. Same tree shape every call, so
/// results are bitwise stable run to run (and across call sites).
inline double hsum(vd2 v) { return v[0] + v[1]; }
inline double hsum(vd4 v) {
  const vd2 lo = __builtin_shufflevector(v, v, 0, 1);
  const vd2 hi = __builtin_shufflevector(v, v, 2, 3);
  return hsum(lo + hi);
}

/// Lane-wise IEEE sqrt. The per-element __builtin_sqrt collapses to the
/// vector sqrt instruction under -fno-math-errno; each lane is correctly
/// rounded, matching the scalar std::sqrt bit for bit.
template <class V>
inline V vsqrt_pd(V x) {
  V r = x;
  constexpr int n = static_cast<int>(sizeof(V) / sizeof(double));
  for (int i = 0; i < n; ++i) r[i] = __builtin_sqrt(x[i]);
  return r;
}
/// Vector replica of core::fast_rsqrt, op for op: same bit-level seed,
/// same two Newton steps. With -ffp-contract=off every lane is bitwise
/// identical to the scalar function (which the baseline build cannot
/// contract either — x86-64 SSE2 has no FMA).
template <int N>
inline typename lanes_of<N>::vd fast_rsqrt_pd(typename lanes_of<N>::vd x) {
  using vd = typename lanes_of<N>::vd;
  using vu = typename lanes_of<N>::vu;
  const vu i = bc<vu>(0x5fe6eb50c7b537a9ULL) - (((vu)x) >> 1);
  vd y = (vd)i;
  y = y * (bc<vd>(1.5) - bc<vd>(0.5) * x * y * y);
  y = y * (bc<vd>(1.5) - bc<vd>(0.5) * x * y * y);
  return y;
}

/// Vector replica of core::fast_exp (Schraudolph), with the same range
/// hardening: non-positive accumulator → 0, ≥ +inf bit pattern → +inf,
/// NaN → 0 (matching !(t > 0)). In-range lanes are bitwise identical to
/// the scalar function.
template <int N>
inline typename lanes_of<N>::vd fast_exp_pd(typename lanes_of<N>::vd x) {
  using vd = typename lanes_of<N>::vd;
  using vu = typename lanes_of<N>::vu;
  constexpr double a = 4503599627370496.0 / 0.6931471805599453;  // 2^52/ln2
  constexpr double b = 4503599627370496.0 * 1023.0;              // bias
  constexpr double c = 60801.0 * 4294967296.0;  // mean-error correction
  constexpr double kInfBits = 9218868437227405312.0;  // bits of +inf
  const vd t = bc<vd>(a) * x + bc<vd>(b - c);
  const auto pos = t > bc<vd>(0.0);
  const auto ovf = t >= bc<vd>(kInfBits);
  vd tsafe = pos ? t : bc<vd>(1.0);
  tsafe = ovf ? bc<vd>(1.0) : tsafe;  // keep the convert in-range
  const vu u = __builtin_convertvector(tsafe, vu);
  vd r = (vd)u;
  r = pos ? r : bc<vd>(0.0);
  r = ovf ? bc<vd>(__builtin_inf()) : r;
  return r;
}

/// Vector exp(x) for the exact kernels: Cephes-style range reduction
/// (round-to-nearest via the 1.5·2^52 magic constant) plus the standard
/// degree-2/3 Padé approximant, ~1 ulp over the kernels' domain (x ≤ 0).
/// Differs from libm's exp by ≤ ~2e-16 relative — covered by the ε
/// bounds in simd_diff_test, not by bitwise contracts. Non-finite and
/// out-of-range inputs are clamped before the float→int conversion so no
/// lane ever hits undefined behavior.
template <int N>
inline typename lanes_of<N>::vd exp_pd(typename lanes_of<N>::vd x) {
  using vd = typename lanes_of<N>::vd;
  using vq = typename lanes_of<N>::vq;
  const auto is_nan = x != x;
  vd xc = is_nan ? bc<vd>(0.0) : x;
  xc = xc > bc<vd>(709.0) ? bc<vd>(709.0) : xc;
  xc = xc < bc<vd>(-709.0) ? bc<vd>(-709.0) : xc;
  const vd magic = bc<vd>(6755399441055744.0);  // 1.5 * 2^52
  const vd t = xc * bc<vd>(1.4426950408889634074);
  const vd n = (t + magic) - magic;  // round-to-nearest-even(t)
  vd px = xc - n * bc<vd>(6.93145751953125e-1);
  px -= n * bc<vd>(1.42860682030941723212e-6);
  const vd xx = px * px;
  vd p = bc<vd>(1.26177193074810590878e-4);
  p = p * xx + bc<vd>(3.02994407707441961300e-2);
  p = p * xx + bc<vd>(9.99999999999999999910e-1);
  p = p * px;
  vd q = bc<vd>(3.00198505138664455042e-6);
  q = q * xx + bc<vd>(2.52448340349684104192e-3);
  q = q * xx + bc<vd>(2.27265548208155028766e-1);
  q = q * xx + bc<vd>(2.0);
  const vd e = bc<vd>(1.0) + bc<vd>(2.0) * p / (q - p);
  const vq ni = __builtin_convertvector(n, vq);
  const vq bits = (ni + 1023) << 52;
  vd r = e * (vd)bits;
  r = x < bc<vd>(-708.0) ? bc<vd>(0.0) : r;
  r = x > bc<vd>(708.0) ? bc<vd>(__builtin_inf()) : r;
  r = is_nan ? x : r;
  return r;
}

#endif  // OCTGB_SIMD_PACK_INCLUDED
