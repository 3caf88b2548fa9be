#include "octgb/svc/cache.hpp"

#include "octgb/trace/trace.hpp"
#include "octgb/util/check.hpp"
#include "octgb/ws/scheduler.hpp"

namespace octgb::svc {

ArtifactCache::ArtifactCache(std::size_t budget_bytes)
    : budget_(budget_bytes) {}

ArtifactPtr ArtifactCache::acquire(const Digest& d,
                                   const ArtifactBuilder& build, bool* hit) {
  std::unique_lock lk(mu_);
  for (;;) {
    auto it = index_.find(d);
    if (it == index_.end()) break;  // miss: fall through to build
    Slot& s = it->second;
    if (s.failed) {  // tombstone from a failed build: retry from scratch
      index_.erase(it);
      break;
    }
    if (s.built) {
      ++stats_.hits;
      ++s.artifact->uses;
      touch(s);
      if (hit) *hit = true;
      return s.artifact;
    }
    // Someone else is building this digest: wait for the latch instead of
    // duplicating the preprocessing, then re-examine.
    ++stats_.coalesced;
    build_cv_.wait(lk, [&] {
      auto it2 = index_.find(d);
      return it2 == index_.end() || it2->second.built || it2->second.failed;
    });
    auto it2 = index_.find(d);
    if (it2 != index_.end() && it2->second.failed) {
      // The builder threw; surface the failure to waiters too.
      index_.erase(it2);
      throw util::CheckError("svc: artifact build failed (coalesced waiter)");
    }
    // Built (hit on next loop) or evicted/erased meanwhile (rebuild).
  }

  // Miss: insert an unbuilt slot as the latch, build outside the lock.
  ++stats_.misses;
  auto art = std::make_shared<Artifact>();
  art->digest = d;
  art->uses = 1;
  lru_.push_front(d);
  Slot slot;
  slot.artifact = art;
  slot.lru = lru_.begin();
  index_.emplace(d, std::move(slot));
  lk.unlock();

  std::unique_ptr<core::ScoringSession> session;
  try {
    OCTGB_SPAN("svc.preprocess");
    // A cold build runs before its job leases cores. Under a 1-worker
    // ambient scheduler the self-parallel library calls inside it
    // (surface sampling, the Morton sort) run inline instead of starting
    // a host-wide private pool beside the leased jobs.
    if (ws::Scheduler::current() != nullptr) {
      session = build();
    } else {
      ws::Scheduler inline_sched(1);
      inline_sched.run([&] { session = build(); });
    }
    OCTGB_CHECK_MSG(session != nullptr, "svc: artifact builder returned null");
  } catch (...) {
    lk.lock();
    auto it = index_.find(d);
    if (it != index_.end() && it->second.artifact == art) {
      it->second.failed = true;  // waiters (or the next acquire) erase it
      lru_.erase(it->second.lru);
    }
    build_cv_.notify_all();
    throw;
  }

  art->bytes = session->footprint_bytes();
  art->session = std::move(session);

  lk.lock();
  auto it = index_.find(d);
  if (it != index_.end() && it->second.artifact == art) {
    it->second.built = true;
    stats_.bytes += art->bytes;
    stats_.entries = index_.size();
    touch(it->second);
    evict_over_budget();
  }
  // (If the slot was cleared meanwhile the artifact simply lives on the
  // returned handle, uncached.)
  build_cv_.notify_all();
  if (hit) *hit = false;
  return art;
}

bool ArtifactCache::contains(const Digest& d) const {
  std::lock_guard lk(mu_);
  auto it = index_.find(d);
  return it != index_.end() && it->second.built;
}

CacheStats ArtifactCache::stats() const {
  std::lock_guard lk(mu_);
  CacheStats s = stats_;
  s.entries = index_.size();
  return s;
}

void ArtifactCache::clear() {
  std::lock_guard lk(mu_);
  for (auto& [d, s] : index_) {
    if (s.built) stats_.bytes -= s.artifact->bytes;
  }
  // Unbuilt slots are owned by their in-flight builder; dropping the index
  // entry is safe — the builder's re-find fails its identity check and the
  // artifact stays handle-only.
  index_.clear();
  lru_.clear();
  stats_.entries = 0;
}

void ArtifactCache::touch(Slot& s) {
  lru_.splice(lru_.begin(), lru_, s.lru);
}

void ArtifactCache::evict_over_budget() {
  // Walk from the LRU tail; never evict the MRU entry (the one a job is
  // about to run on) and never evict an in-progress build.
  while (stats_.bytes > budget_ && lru_.size() > 1) {
    auto tail = std::prev(lru_.end());
    if (tail == lru_.begin()) break;
    auto it = index_.find(*tail);
    OCTGB_CHECK(it != index_.end());
    Slot& s = it->second;
    if (!s.built) break;  // an unbuilt latch at the tail: stop, not skip
    stats_.bytes -= s.artifact->bytes;
    ++stats_.evictions;
    lru_.erase(tail);
    index_.erase(it);
    trace::instant("svc.cache.evict");
  }
  stats_.entries = index_.size();
}

}  // namespace octgb::svc
