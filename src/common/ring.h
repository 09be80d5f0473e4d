// Growable power-of-two ring buffer (SPSC queue storage).
//
// std::deque pays a block-map indirection and an allocation every few dozen
// elements; the DBC channels push/pop one record per logged memory access,
// which made deque traffic a visible slice of simulator time. The ring keeps a
// contiguous power-of-two array indexed with a mask, growing (rarely) by
// doubling when a DMA spill pushes occupancy past the allocated capacity.
#pragma once

#include <bit>
#include <cstddef>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace flexstep {

template <typename T>
class Ring {
 public:
  explicit Ring(std::size_t min_capacity = 16)
      : buf_(std::bit_ceil(min_capacity < 2 ? std::size_t{2} : min_capacity)),
        mask_(buf_.size() - 1) {}

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return buf_.size(); }

  T& front() {
    FLEX_DCHECK(count_ > 0);
    return buf_[head_];
  }
  const T& front() const {
    FLEX_DCHECK(count_ > 0);
    return buf_[head_];
  }
  T& back() {
    FLEX_DCHECK(count_ > 0);
    return buf_[(head_ + count_ - 1) & mask_];
  }
  const T& back() const {
    FLEX_DCHECK(count_ > 0);
    return buf_[(head_ + count_ - 1) & mask_];
  }

  /// Indexed access relative to the front (0 = oldest element).
  T& operator[](std::size_t i) {
    FLEX_DCHECK(i < count_);
    return buf_[(head_ + i) & mask_];
  }
  const T& operator[](std::size_t i) const {
    FLEX_DCHECK(i < count_);
    return buf_[(head_ + i) & mask_];
  }

  void push_back(const T& value) {
    if (count_ == buf_.size()) [[unlikely]] grow();
    buf_[(head_ + count_) & mask_] = value;
    ++count_;
  }

  void pop_front() {
    FLEX_DCHECK(count_ > 0);
    head_ = (head_ + 1) & mask_;
    --count_;
  }

  void clear() {
    head_ = 0;
    count_ = 0;
  }

 private:
  void grow() {
    std::vector<T> next(buf_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i) next[i] = buf_[(head_ + i) & mask_];
    buf_ = std::move(next);
    mask_ = buf_.size() - 1;
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t mask_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace flexstep
