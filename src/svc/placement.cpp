#include "octgb/svc/placement.hpp"

#include <algorithm>

#include "octgb/trace/trace.hpp"
#include "octgb/util/check.hpp"

namespace octgb::svc {

CoreAllocator::CoreAllocator(int total) : used_(std::max(total, 1), 0) {}

std::optional<CoreLease> CoreAllocator::try_alloc(int count) {
  count = std::clamp(count, 1, total());
  int run = 0;
  for (int i = 0; i < total(); ++i) {
    run = used_[i] ? 0 : run + 1;
    if (run == count) {
      const int first = i - count + 1;
      std::fill(used_.begin() + first, used_.begin() + first + count, 1);
      in_use_ += count;
      ++grants_;
      return CoreLease{first, count};
    }
  }
  return std::nullopt;
}

CoreLease CoreAllocator::alloc(int count) {
  std::unique_lock lk(mu_);
  auto lease = try_alloc(count);
  if (!lease) {
    ++waits_;
    OCTGB_SPAN("svc.place.wait");
    cv_.wait(lk, [&] {
      lease = try_alloc(count);
      return lease.has_value();
    });
  }
  return *lease;
}

void CoreAllocator::release(const CoreLease& lease) {
  if (!lease.valid()) return;
  {
    std::lock_guard lk(mu_);
    OCTGB_CHECK_MSG(lease.first + lease.count <= total(),
                    "svc: lease outside the managed core range");
    for (int i = lease.first; i < lease.first + lease.count; ++i) {
      OCTGB_CHECK_MSG(used_[i], "svc: double release of core " << i);
      used_[i] = 0;
    }
    in_use_ -= lease.count;
  }
  cv_.notify_all();
}

int CoreAllocator::in_use() const {
  std::lock_guard lk(mu_);
  return in_use_;
}

std::uint64_t CoreAllocator::grants() const {
  std::lock_guard lk(mu_);
  return grants_;
}

std::uint64_t CoreAllocator::waits() const {
  std::lock_guard lk(mu_);
  return waits_;
}

}  // namespace octgb::svc
