#pragma once
/// \file placement.hpp
/// Disjoint core-subset placement for concurrent scoring jobs.
///
/// The paper's runtime assumes one job owning the whole machine; the
/// service instead follows the SET scheduler's `Cluster::try_alloc`
/// discipline (SNIPPETS.md §3): the machine is a fixed range of cores, and
/// every running job holds a *disjoint contiguous sub-range* sized to its
/// work. Jobs therefore never oversubscribe one scheduler pool — each
/// executes under its own `ws::Scheduler` of exactly `Lease::count`
/// workers, and the kernel-level parallel structure of a job depends only
/// on its width (which DESIGN.md §2.8 pins to a pure function of the
/// artifact, making repeat executions bit-identical).
///
/// `alloc` is first-fit over a free bitmap; when no free range fits, it
/// waits on a condition variable until a release makes one.

#include <cstdint>
#include <mutex>
#include <condition_variable>
#include <optional>
#include <vector>

namespace octgb::svc {

/// One job's hold on a contiguous, disjoint core range.
struct CoreLease {
  int first = -1;  ///< first core index, -1 when invalid
  int count = 0;   ///< cores held

  /// True for a live lease returned by alloc.
  bool valid() const { return first >= 0 && count > 0; }
};

/// Bitmap allocator handing out disjoint contiguous core ranges.
///
/// Thread-safe; leases must be returned via release() exactly once.
class CoreAllocator {
 public:
  /// Manage cores [0, total). `total` must be >= 1.
  explicit CoreAllocator(int total);

  CoreAllocator(const CoreAllocator&) = delete;             ///< non-copyable
  CoreAllocator& operator=(const CoreAllocator&) = delete;  ///< non-assignable

  /// Allocate `count` contiguous free cores (first fit), waiting until
  /// such a range is free. `count` is clamped to [1, total()].
  CoreLease alloc(int count);

  /// Return a lease. Invalid leases are ignored.
  void release(const CoreLease& lease);

  /// Total cores managed.
  int total() const { return static_cast<int>(used_.size()); }
  /// Cores currently held by leases.
  int in_use() const;
  /// Leases granted since construction.
  std::uint64_t grants() const;
  /// alloc() calls that had to wait for capacity.
  std::uint64_t waits() const;

 private:
  /// First-fit grab of `count` free cores; nullopt when no such range is
  /// free. Caller holds mu_.
  std::optional<CoreLease> try_alloc(int count);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<char> used_;  ///< per-core busy flag
  int in_use_ = 0;
  std::uint64_t grants_ = 0;
  std::uint64_t waits_ = 0;
};

}  // namespace octgb::svc
