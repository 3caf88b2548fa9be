#pragma once
/// \file fastmath.hpp
/// Approximate math kernels (§V-C of the paper: "approximate math for
/// computing square root and power functions" trades 4–5 % energy error
/// for a ×1.42 speedup).
///
/// fast_rsqrt: the bit-level initial guess (double-precision variant of the
/// classic trick) refined with two Newton–Raphson steps (~0.0005 % error).
/// fast_exp: Schraudolph's exponent-field approximation (~2–4 % error) —
/// this is where the visible energy shift comes from.

#include <bit>
#include <cstdint>
#include <limits>

namespace octgb::core {

/// Approximate 1/sqrt(x) for x > 0.
inline double fast_rsqrt(double x) {
  const std::uint64_t i =
      0x5fe6eb50c7b537a9ULL - (std::bit_cast<std::uint64_t>(x) >> 1);
  double y = std::bit_cast<double>(i);
  y = y * (1.5 - 0.5 * x * y * y);  // Newton 1
  y = y * (1.5 - 0.5 * x * y * y);  // Newton 2
  return y;
}

/// Approximate exp(x); usable range |x| < 700.
inline double fast_exp(double x) {
  // Schraudolph 1999 adapted to binary64: e^x = 2^(x/ln2); write the
  // exponent field directly and let the mantissa bits interpolate.
  constexpr double a = 4503599627370496.0 / 0.6931471805599453;  // 2^52/ln2
  constexpr double b = 4503599627370496.0 * 1023.0;              // bias
  constexpr double c = 60801.0 * 4294967296.0;  // mean-error correction
  const double t = a * x + (b - c);
  // !(t > 0) also catches NaN inputs (exp(NaN) would otherwise be a UB
  // float→integer cast); the upper clamp is the bit pattern of +inf —
  // below 2^63, so the cast stays defined for every admitted t.
  if (!(t > 0.0)) return 0.0;
  if (t >= 9218868437227405312.0) return std::numeric_limits<double>::infinity();
  return std::bit_cast<double>(static_cast<std::uint64_t>(t));
}

/// Approximate x^(-1/3) (used by the Born radius finalization):
/// x^(-1/3) = (1/sqrt(x))^(2/3) — computed as rsqrt(cbrt estimate) with a
/// Newton step on y³ = 1/x.
inline double fast_inv_cbrt(double x) {
  // Initial guess from exponent manipulation: i_y ≈ C − i_x/3 with C fixed
  // so x = 1 maps to exactly 1 (C = bits(1.0) + bits(1.0)/3). The guess is
  // within ~15 % across the normal range; three Newton iterations
  // y ← y(4 − x y³)/3 drive it to ~1e-12 relative error.
  std::uint64_t i = std::bit_cast<std::uint64_t>(x);
  i = 0x5540000000000000ULL - i / 3;
  double y = std::bit_cast<double>(i);
  y = y * (4.0 - x * y * y * y) * (1.0 / 3.0);
  y = y * (4.0 - x * y * y * y) * (1.0 / 3.0);
  y = y * (4.0 - x * y * y * y) * (1.0 / 3.0);
  return y;
}

}  // namespace octgb::core
