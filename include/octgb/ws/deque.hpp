#pragma once
/// \file deque.hpp
/// Chase–Lev lock-free work-stealing deque (Chase & Lev 2005, with the
/// weak-memory-model fences of Lê et al. 2013).
///
/// The owner pushes/pops at the bottom (newest-first, preserving the serial
/// depth-first order and its cache locality); thieves steal from the top
/// (oldest-first — the paper notes that stealing the least-recently-used
/// entry is what makes cilk++-style stealing cache friendly).

#include <atomic>
#include <cstdint>
#include <vector>

namespace octgb::ws {

/// Lock-free deque of opaque pointers. Single owner, many thieves.
template <class T>
class ChaseLevDeque {
 public:
  explicit ChaseLevDeque(std::size_t initial_capacity = 256)
      : array_(new Array(round_up(initial_capacity))) {}

  ~ChaseLevDeque() {
    delete array_.load(std::memory_order_relaxed);
    for (Array* a : retired_) delete a;
  }

  ChaseLevDeque(const ChaseLevDeque&) = delete;
  ChaseLevDeque& operator=(const ChaseLevDeque&) = delete;

  /// Owner only: push onto the bottom.
  void push(T* item) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Array* a = array_.load(std::memory_order_relaxed);
    if (b - t > static_cast<std::int64_t>(a->capacity) - 1) {
      a = grow(a, t, b);
    }
    a->put(b, item);
    // Lê et al. publish with a release fence + relaxed store; a release
    // store is equivalent here (and free on x86) and, unlike the fence,
    // is modeled by TSan — fences are invisible to it, so the fence form
    // reports the item payload as racing with thieves.
    bottom_.store(b + 1, std::memory_order_release);
  }

  /// Owner only: pop from the bottom. nullptr when empty.
  T* pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Array* a = array_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    T* x = nullptr;
    if (t <= b) {
      x = a->get(b);
      if (t == b) {
        // Last element: race against thieves for it.
        if (!top_.compare_exchange_strong(t, t + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          x = nullptr;  // lost the race
        }
        bottom_.store(b + 1, std::memory_order_relaxed);
      }
    } else {
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return x;
  }

  /// Thieves: steal from the top. nullptr when empty or on a lost race
  /// (callers treat both as "try elsewhere").
  T* steal() {
    std::int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    T* x = nullptr;
    if (t < b) {
      Array* a = array_.load(std::memory_order_acquire);
      x = a->get(t);
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        return nullptr;  // another thief (or the owner) got it
      }
    }
    return x;
  }

 private:
  struct Array {
    explicit Array(std::size_t cap) : capacity(cap), slots(cap) {}
    std::size_t capacity;
    std::vector<std::atomic<T*>> slots;
    T* get(std::int64_t i) const {
      return slots[static_cast<std::size_t>(i) & (capacity - 1)].load(
          std::memory_order_relaxed);
    }
    void put(std::int64_t i, T* v) {
      slots[static_cast<std::size_t>(i) & (capacity - 1)].store(
          v, std::memory_order_relaxed);
    }
  };

  static std::size_t round_up(std::size_t n) {
    std::size_t c = 8;
    while (c < n) c <<= 1;
    return c;
  }

  Array* grow(Array* old, std::int64_t t, std::int64_t b) {
    Array* bigger = new Array(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, old->get(i));
    array_.store(bigger, std::memory_order_release);
    // Retire the old array; thieves may still be reading it, so free it
    // only at deque destruction.
    retired_.push_back(old);
    return bigger;
  }

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Array*> array_;
  std::vector<Array*> retired_;
};

}  // namespace octgb::ws
