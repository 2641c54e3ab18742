// Rolling-window primitives used by the strategy and the correlation engine.
//
// RollingWindow   — fixed-capacity ring buffer with O(1) push and random
//                   access from oldest to newest.
// RollingMean     — windowed mean with running sum (used for C̄ over W).
// RollingMinMax   — windowed min/max via monotonic deques (used for the
//                   spread high/low over the retracement window).
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "common/error.hpp"

namespace mm::stats {

template <typename T>
class RollingWindow {
 public:
  explicit RollingWindow(std::size_t capacity) : buffer_(capacity) {
    MM_ASSERT_MSG(capacity > 0, "RollingWindow capacity must be positive");
  }

  void push(const T& value) {
    buffer_[head_] = value;
    head_ = (head_ + 1) % buffer_.size();
    if (size_ < buffer_.size()) ++size_;
  }

  bool full() const { return size_ == buffer_.size(); }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return buffer_.size(); }

  // Element i counted from the oldest (i = 0) to the newest (i = size()-1).
  const T& operator[](std::size_t i) const {
    MM_ASSERT(i < size_);
    const std::size_t start = (head_ + buffer_.size() - size_) % buffer_.size();
    return buffer_[(start + i) % buffer_.size()];
  }

  const T& newest() const {
    MM_ASSERT(size_ > 0);
    return (*this)[size_ - 1];
  }
  const T& oldest() const {
    MM_ASSERT(size_ > 0);
    return (*this)[0];
  }

  // Copy out oldest -> newest (for handing a window to a batch estimator).
  std::vector<T> snapshot() const {
    std::vector<T> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) out.push_back((*this)[i]);
    return out;
  }

  void clear() {
    size_ = 0;
    head_ = 0;
  }

 private:
  std::vector<T> buffer_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

class RollingMean {
 public:
  // The running sum is rebuilt from the window every this many pushes, to
  // cap floating-point drift.
  static constexpr std::size_t kRebuildPushes = 4096;

  explicit RollingMean(std::size_t window) : window_(window) {
    MM_ASSERT(window > 0);
  }

  void update(double value) {
    if (window_.full()) sum_ -= window_.oldest();
    window_.push(value);
    sum_ += value;
    if (++pushes_ % kRebuildPushes == 0) {
      sum_ = 0.0;
      for (std::size_t i = 0; i < window_.size(); ++i) sum_ += window_[i];
    }
  }

  bool full() const { return window_.full(); }
  std::size_t size() const { return window_.size(); }

  double mean() const {
    MM_ASSERT(window_.size() > 0);
    return sum_ / static_cast<double>(window_.size());
  }

 private:
  RollingWindow<double> window_;
  double sum_ = 0.0;
  std::size_t pushes_ = 0;
};

class RollingMinMax {
 public:
  explicit RollingMinMax(std::size_t window) : window_(window) {
    MM_ASSERT(window > 0);
  }

  void update(double value) {
    ++index_;
    const std::size_t expire_before = index_ > window_ ? index_ - window_ : 0;

    while (!min_.empty() && min_.front().index < expire_before) min_.pop_front();
    while (!max_.empty() && max_.front().index < expire_before) max_.pop_front();
    while (!min_.empty() && min_.back().value >= value) min_.pop_back();
    while (!max_.empty() && max_.back().value <= value) max_.pop_back();
    min_.push_back({index_ - 1, value});
    max_.push_back({index_ - 1, value});
    if (count_ < window_) ++count_;
  }

  bool ready() const { return count_ > 0; }
  bool full() const { return count_ == window_; }

  double min() const {
    MM_ASSERT(!min_.empty());
    return min_.front().value;
  }
  double max() const {
    MM_ASSERT(!max_.empty());
    return max_.front().value;
  }

 private:
  struct Entry {
    std::size_t index;
    double value;
  };

  std::size_t window_;
  std::size_t index_ = 0;
  std::size_t count_ = 0;
  std::deque<Entry> min_;
  std::deque<Entry> max_;
};

}  // namespace mm::stats
