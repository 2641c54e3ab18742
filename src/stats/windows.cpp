#include "stats/windows.hpp"

#include <algorithm>
#include <cmath>

#include "stats/simd.hpp"

namespace mm::stats {

ReturnWindows::ReturnWindows(std::size_t symbols, std::size_t window,
                             bool track_cross_sums)
    : symbols_(symbols),
      window_(window),
      data_(symbols * window, 0.0),
      sum_(symbols, 0.0),
      sum_sq_(symbols, 0.0),
      last_value_(symbols, 0.0),
      run_length_(symbols, 0),
      evict_scratch_(symbols, 0.0) {
  MM_ASSERT_MSG(symbols >= 1, "ReturnWindows needs at least one symbol");
  MM_ASSERT_MSG(window >= 2, "ReturnWindows window must be >= 2");
  if (track_cross_sums) cross_ = SymMatrix(symbols, 0.0);
}

void ReturnWindows::push(const std::vector<double>& returns) {
  MM_ASSERT_MSG(returns.size() == symbols_, "push: one return per symbol required");

  const bool evicting = count_ >= window_;
  const bool cross = tracks_cross_sums();

  if (evicting) {
    // Stage the oldest column (the slot we are about to overwrite) so the
    // cross-sum update below can fuse eviction and insertion into a single
    // pass over the packed triangle.
    for (std::size_t i = 0; i < symbols_; ++i) {
      const double old = data_[i * window_ + head_];
      evict_scratch_[i] = old;
      sum_[i] -= old;
      sum_sq_[i] -= old * old;
    }
  }

  for (std::size_t i = 0; i < symbols_; ++i) {
    const double x = returns[i];
    data_[i * window_ + head_] = x;
    sum_[i] += x;
    sum_sq_[i] += x * x;
    if (count_ > 0 && x == last_value_[i]) {
      ++run_length_[i];
    } else {
      last_value_[i] = x;
      run_length_[i] = 1;
    }
  }

  if (cross) {
    // One linear walk over the packed upper triangle (row i's off-diagonal
    // segment is contiguous), streaming the new and evicted columns from two
    // n-sized arrays that stay cache-resident. Fusing evict+insert halves
    // the O(n²) triangle traffic versus separate passes.
    const auto& kern = simd::kernels();
    double* cp = cross_.packed().data();
    const double* r = returns.data();
    const double* old = evict_scratch_.data();
    std::size_t base = 0;
    if (evicting) {
      for (std::size_t i = 0; i < symbols_; ++i) {
        double* row = cp + base;  // row[k] == Σ x_i x_{i+k}
        kern.cross_evict_insert(row + 1, r + i + 1, old + i + 1, r[i], old[i],
                                symbols_ - i - 1);
        base += symbols_ - i;
      }
    } else {
      for (std::size_t i = 0; i < symbols_; ++i) {
        double* row = cp + base;
        kern.cross_insert(row + 1, r + i + 1, r[i], symbols_ - i - 1);
        base += symbols_ - i;
      }
    }
  }

  head_ = (head_ + 1) % window_;
  ++count_;

  // Bound floating-point drift in the running sums.
  if (count_ % kRebuildInterval == 0) rebuild_sums();
}

void ReturnWindows::rebuild_sums() {
  std::fill(sum_.begin(), sum_.end(), 0.0);
  std::fill(sum_sq_.begin(), sum_sq_.end(), 0.0);
  const std::size_t filled = std::min(count_, window_);
  for (std::size_t i = 0; i < symbols_; ++i) {
    for (std::size_t t = 0; t < filled; ++t) {
      const double x = data_[i * window_ + t];
      sum_[i] += x;
      sum_sq_[i] += x * x;
    }
  }
  if (tracks_cross_sums()) {
    // The two rows align slot-for-slot (all rings share one head), so the
    // exact cross sum is a straight dot product over the filled slots.
    const auto& kern = simd::kernels();
    for (std::size_t i = 0; i < symbols_; ++i) {
      const double* xi = data_.data() + i * window_;
      for (std::size_t j = i + 1; j < symbols_; ++j)
        cross_.set(i, j, kern.dot(xi, data_.data() + j * window_, filled));
    }
  }
}

void ReturnWindows::copy_window(std::size_t symbol, double* out) const {
  MM_ASSERT(symbol < symbols_);
  MM_ASSERT_MSG(ready(), "copy_window before the window is full");
  // Oldest element is at head_ (the next overwrite target) once full: the
  // ring unwraps as two contiguous segments.
  const double* row = data_.data() + symbol * window_;
  const std::size_t tail = window_ - head_;
  std::copy(row + head_, row + window_, out);
  std::copy(row, row + head_, out + tail);
}

void ReturnWindows::unwrap_all(double* arena) const {
  MM_ASSERT_MSG(ready(), "unwrap_all before the window is full");
  const std::size_t tail = window_ - head_;
  for (std::size_t i = 0; i < symbols_; ++i) {
    const double* row = data_.data() + i * window_;
    double* out = arena + i * window_;
    std::copy(row + head_, row + window_, out);
    std::copy(row, row + head_, out + tail);
  }
}

double ReturnWindows::cross_sum(std::size_t i, std::size_t j) const {
  MM_ASSERT_MSG(tracks_cross_sums(), "cross sums not tracked");
  if (i == j) return sum_sq_[i];
  return cross_(i, j);
}

double ReturnWindows::pearson(std::size_t i, std::size_t j) const {
  MM_ASSERT_MSG(ready(), "pearson before the window is full");
  // An exactly constant window has zero variance: no signal. (The batch
  // estimator sees dx == 0 exactly; the running sums only see their own
  // roundoff residue, so detect the case via value run lengths.)
  if (run_length_[i] >= window_ || run_length_[j] >= window_) return 0.0;
  const auto n = static_cast<double>(window_);
  const double cov = cross_sum(i, j) - sum_[i] * sum_[j] / n;
  const double vi = sum_sq_[i] - sum_[i] * sum_[i] / n;
  const double vj = sum_sq_[j] - sum_[j] * sum_[j] / n;
  // A variance that is a ~1e-12 sliver of the raw sum of squares is pure
  // cancellation residue from a (numerically) constant window: report "no
  // dispersion" -> 0, exactly as the batch estimator does when dx == 0.
  if (vi <= 1e-12 * sum_sq_[i] || vj <= 1e-12 * sum_sq_[j]) return 0.0;
  const double denom = std::sqrt(vi * vj);
  if (denom <= 0.0 || !std::isfinite(denom)) return 0.0;
  return std::clamp(cov / denom, -1.0, 1.0);
}

void ReturnWindows::pearson_matrix(SymMatrix& out) const {
  if (out.size() != symbols_) out = SymMatrix(symbols_, 0.0);
  pearson_rows(out.packed().data(), /*unit_diagonal=*/true);
}

void ReturnWindows::pearson_pairs(double* out) const {
  pearson_rows(out, /*unit_diagonal=*/false);
}

void ReturnWindows::pearson_rows(double* out, bool unit_diagonal) const {
  MM_ASSERT_MSG(ready(), "pearson before the window is full");
  MM_ASSERT_MSG(tracks_cross_sums(), "cross sums not tracked");

  // Per-symbol variance and degeneracy, hoisted out of the O(n²) loop. The
  // expressions match pearson() exactly so every entry is bit-identical.
  const auto n = static_cast<double>(window_);
  variance_scratch_.resize(symbols_);
  degenerate_scratch_.resize(symbols_);
  for (std::size_t i = 0; i < symbols_; ++i) {
    const double vi = sum_sq_[i] - sum_[i] * sum_[i] / n;
    variance_scratch_[i] = vi;
    degenerate_scratch_[i] =
        (run_length_[i] >= window_ || vi <= 1e-12 * sum_sq_[i]) ? 1.0 : 0.0;
  }

  // The output rows share the cross-sum triangle's row segments (with or
  // without the diagonal slot), so the kernel is a single linear walk over
  // each with contiguous row segments.
  const auto& kern = simd::kernels();
  const double* cp = cross_.packed().data();
  std::size_t base = 0;
  for (std::size_t i = 0; i < symbols_; ++i) {
    const double* crow = cp + base;
    const std::size_t len = symbols_ - i - 1;
    if (unit_diagonal) *out++ = 1.0;
    if (degenerate_scratch_[i] != 0.0) {
      std::fill(out, out + len, 0.0);
    } else {
      kern.pearson_row(out, crow + 1, sum_.data() + i + 1,
                       variance_scratch_.data() + i + 1,
                       degenerate_scratch_.data() + i + 1, sum_[i],
                       variance_scratch_[i], n, len);
    }
    out += len;
    base += symbols_ - i;
  }
}

}  // namespace mm::stats
