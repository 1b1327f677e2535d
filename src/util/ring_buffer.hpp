// Fixed-capacity FIFO ring buffer.
//
// Models all the hardware queues in the machine: the 4-deep cache-bus buffer,
// the 2-deep memory input/output buffers.  Capacity is a run-time parameter
// (buffer-depth ablations sweep it), storage is a single allocation made at
// construction, and no allocation happens on the simulation fast path.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace syncpat::util {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity)
      : slots_(capacity), capacity_(capacity) {
    SYNCPAT_ASSERT(capacity > 0);
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool full() const { return size_ == capacity_; }

  /// Append at the tail.  Precondition: !full().
  void push_back(T value) {
    SYNCPAT_ASSERT(!full());
    slots_[index(size_)] = std::move(value);
    ++size_;
  }

  /// Insert at the head (used by weak-ordering read bypass).
  /// Precondition: !full().
  void push_front(T value) {
    SYNCPAT_ASSERT(!full());
    head_ = (head_ == 0 ? capacity_ : head_) - 1;
    slots_[head_] = std::move(value);
    ++size_;
  }

  /// Remove and return the head element.  Precondition: !empty().
  T pop_front() {
    SYNCPAT_ASSERT(!empty());
    T value = std::move(slots_[head_]);
    head_ = index(1);
    --size_;
    return value;
  }

  [[nodiscard]] T& front() {
    SYNCPAT_ASSERT(!empty());
    return slots_[head_];
  }
  [[nodiscard]] const T& front() const {
    SYNCPAT_ASSERT(!empty());
    return slots_[head_];
  }

  /// Element i positions from the head (0 == front).
  [[nodiscard]] T& at(std::size_t i) {
    SYNCPAT_ASSERT(i < size_);
    return slots_[index(i)];
  }
  [[nodiscard]] const T& at(std::size_t i) const {
    SYNCPAT_ASSERT(i < size_);
    return slots_[index(i)];
  }

  /// Remove the element i positions from the head, preserving order.
  /// O(size); queues here are at most a few entries deep.
  T remove_at(std::size_t i) {
    SYNCPAT_ASSERT(i < size_);
    T value = std::move(slots_[index(i)]);
    for (std::size_t j = i; j + 1 < size_; ++j) {
      slots_[index(j)] = std::move(slots_[index(j + 1)]);
    }
    --size_;
    return value;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  /// Slot of the element `offset` places from the head.  Both head_ and
  /// every offset passed here are below capacity, so one conditional
  /// subtract wraps the sum (no divide on the per-access path).
  [[nodiscard]] std::size_t index(std::size_t offset) const {
    const std::size_t i = head_ + offset;
    return i >= capacity_ ? i - capacity_ : i;
  }

  std::vector<T> slots_;
  std::size_t capacity_;  // slots_.size(), kept so no access recomputes it
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace syncpat::util
