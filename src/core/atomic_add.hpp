#pragma once
/// \file atomic_add.hpp
/// Relaxed atomic accumulation into plain slots, shared by the core
/// traversals (Born partials, Epol totals, work counters). Internal to
/// octgb_core: not part of the installed headers.
///
/// Integer sums are exact in any order. Floating-point sums fold in
/// completion order, so a double slot fed by more than one task is only
/// reproducible up to reassociation (see DESIGN.md §2.6 for the paths
/// that avoid it).

#include <atomic>
#include <cstdint>

namespace octgb::core::detail {

inline void atomic_add(double& slot, double v) {
  std::atomic_ref<double>(slot).fetch_add(v, std::memory_order_relaxed);
}

inline void atomic_add(std::uint64_t& slot, std::uint64_t v) {
  std::atomic_ref<std::uint64_t>(slot).fetch_add(v,
                                                 std::memory_order_relaxed);
}

}  // namespace octgb::core::detail
