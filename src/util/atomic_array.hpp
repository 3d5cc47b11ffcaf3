// A heap-allocated array whose elements are accessed atomically.
//
// std::vector<std::atomic<T>> is unusable because atomics are not movable;
// this wrapper owns plain storage, provides bounds-checked debug access, and
// exposes relaxed-by-default load/store helpers through std::atomic_ref. The
// ppSCAN phases rely on benign read/write races (e.g. a neighbor reading
// sim[e(u,v)] while the owner thread writes it); accessing every element
// atomically turns those races into defined behavior at zero cost on x86
// (relaxed atomic load/store compiles to a plain MOV).
//
// Plain storage is what lets assign_for_overwrite() skip initialization: an
// array its first parallel phase stores in full gets its pages first-touched
// by the workers that use them, instead of written twice by one thread.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <memory>

namespace ppscan {

template <typename T>
class AtomicArray {
  static_assert(std::atomic_ref<T>::is_always_lock_free);
  static_assert(alignof(T) >= std::atomic_ref<T>::required_alignment);

 public:
  AtomicArray() = default;

  explicit AtomicArray(std::size_t n, T init = T{}) { assign(n, init); }

  /// n elements, all `init`. Call before the array is shared.
  void assign(std::size_t n, T init = T{}) {
    assign_for_overwrite(n);
    std::fill_n(data_.get(), n, init);
  }

  /// n elements with indeterminate values: every element must be stored
  /// before it is loaded. Call before the array is shared.
  void assign_for_overwrite(std::size_t n) {
    data_ = std::make_unique_for_overwrite<T[]>(n);
    size_ = n;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] T load(std::size_t i,
                       std::memory_order order = std::memory_order_relaxed) const {
    return ref(i).load(order);
  }

  void store(std::size_t i, T value,
             std::memory_order order = std::memory_order_relaxed) {
    ref(i).store(value, order);
  }

  bool compare_exchange(std::size_t i, T& expected, T desired,
                        std::memory_order order = std::memory_order_relaxed) {
    return ref(i).compare_exchange_strong(expected, desired, order);
  }

  T fetch_add(std::size_t i, T delta,
              std::memory_order order = std::memory_order_relaxed) {
    return ref(i).fetch_add(delta, order);
  }

 private:
  // The accessors above forward the caller's memory_order; each AtomicArray
  // *member* declares its own discipline and is checked at its own call
  // sites.
  [[nodiscard]] std::atomic_ref<T> ref(std::size_t i) const {
    assert(i < size_);
    return std::atomic_ref<T>(data_[i]);
  }

  std::unique_ptr<T[]> data_;
  std::size_t size_ = 0;
};

}  // namespace ppscan
