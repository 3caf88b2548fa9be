#pragma once
/// \file atomic_add.hpp
/// Relaxed atomic accumulation of work counters, shared by the core
/// traversals: each task tallies locally and flushes once. Internal to
/// octgb_core: not part of the installed headers.
///
/// Only integer slots: integer sums are exact in any order. No
/// floating-point result slot has more than one writer (DESIGN.md §2.6),
/// so none needs an atomic.

#include <atomic>
#include <cstdint>

namespace octgb::core::detail {

inline void atomic_add(std::uint64_t& slot, std::uint64_t v) {
  std::atomic_ref<std::uint64_t>(slot).fetch_add(v,
                                                 std::memory_order_relaxed);
}

}  // namespace octgb::core::detail
