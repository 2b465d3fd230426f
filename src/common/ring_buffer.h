// Fixed-capacity ring buffer used by the streaming preprocessors and the
// period detector, which need "the most recent N values" views without
// reallocating on the hot path.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"

namespace sds {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity)
      : data_(capacity), capacity_(capacity) {
    SDS_CHECK(capacity > 0, "RingBuffer capacity must be positive");
  }

  // Appends a value, evicting the oldest when full.
  void Push(const T& value) {
    data_[head_] = value;
    head_ = (head_ + 1) % capacity_;
    if (size_ < capacity_) ++size_;
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool full() const { return size_ == capacity_; }
  bool empty() const { return size_ == 0; }

  // Index 0 is the OLDEST retained element; size()-1 is the newest.
  const T& operator[](std::size_t i) const {
    SDS_DCHECK(i < size_, "RingBuffer index out of range");
    return data_[(head_ + capacity_ - size_ + i) % capacity_];
  }

  const T& newest() const {
    SDS_DCHECK(size_ > 0, "RingBuffer is empty");
    return (*this)[size_ - 1];
  }
  const T& oldest() const {
    SDS_DCHECK(size_ > 0, "RingBuffer is empty");
    return (*this)[0];
  }

  // Copies the retained elements, oldest first, into a contiguous vector.
  std::vector<T> ToVector() const {
    std::vector<T> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) out.push_back((*this)[i]);
    return out;
  }

  // The retained elements as two contiguous runs, oldest first: the second
  // run is empty unless the elements wrap past the end of the storage.
  std::pair<std::span<const T>, std::span<const T>> Runs() const {
    const std::size_t start = (head_ + capacity_ - size_) % capacity_;
    const std::span<const T> all(data_);
    if (start + size_ <= capacity_) return {all.subspan(start, size_), {}};
    return {all.subspan(start), all.first(start + size_ - capacity_)};
  }

  void Clear() {
    size_ = 0;
    head_ = 0;
  }

 private:
  std::vector<T> data_;
  std::size_t capacity_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace sds
