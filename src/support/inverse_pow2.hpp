// 2^-r lookup for HyperLogLog register ranks.  Every HLL-style sketch in the
// repository (trace::HyperLogLog, fleet::SketchBank) keeps a harmonic sum of
// 2^-register; this table replaces the per-update std::ldexp call.
#pragma once

#include <array>

namespace worms::support {

/// kInversePow2[r] == 2^-r for r in [0, 64].  Repeated halving of 1.0 is
/// exact down to 2^-64 (far above the subnormal range), so every entry is
/// bit-identical to std::ldexp(1.0, -r) — swapping one for the other moves no
/// estimate by an ulp.  64 covers the largest rank any sketch stores
/// (HyperLogLog at precision 4: 64 − 4 + 1 = 61).
inline constexpr std::array<double, 65> kInversePow2 = [] {
  std::array<double, 65> table{};
  double value = 1.0;
  for (double& entry : table) {
    entry = value;
    value *= 0.5;
  }
  return table;
}();

}  // namespace worms::support
