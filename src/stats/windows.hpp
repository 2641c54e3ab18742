// Lockstep return windows for market-wide correlation.
//
// In the integrated engine every symbol produces exactly one log-return per
// ∆s interval, so all M-point windows advance together. ReturnWindows holds
// the last M returns per symbol plus the running sums that make incremental
// Pearson O(1) per pair per step: per-symbol Σx and Σx², and (optionally)
// per-pair Σ x_i x_j.
//
// Two bulk kernels serve the matrix engines:
//   * unwrap_all — unwraps every symbol's ring buffer into one contiguous
//     time-ordered arena, O(n·M) per step, so per-pair estimators (Maronna)
//     read plain `const double*` views instead of paying a ring-buffer copy
//     per pair (O(n²·M) per step).
//   * pearson_matrix / pearson_pairs — fill a whole SymMatrix (or the
//     canonical pair vector) by walking the packed cross-sum triangle and the
//     output linearly, hoisting the per-symbol variance terms; entries are
//     bit-identical to pearson(i, j).
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "stats/sym_matrix.hpp"

namespace mm::stats {

// Exact-rebuild cadence for incremental running sums: every this many pushes
// the sums are recomputed from the buffered window, bounding floating-point
// drift. One shared policy for every sliding accumulator (ReturnWindows,
// SlidingPearson).
inline constexpr std::size_t kRebuildInterval = 8192;

class ReturnWindows {
 public:
  // `track_cross_sums` maintains the O(n²) per-pair Σxy table (needed for
  // incremental Pearson; pure-Maronna engines skip it).
  ReturnWindows(std::size_t symbols, std::size_t window, bool track_cross_sums);

  std::size_t symbols() const { return symbols_; }
  std::size_t window() const { return window_; }
  bool tracks_cross_sums() const { return !cross_.packed().empty(); }

  // Advance every window by one step; `returns` has one entry per symbol.
  void push(const std::vector<double>& returns);

  // True once `window` steps have been pushed.
  bool ready() const { return count_ >= window_; }
  std::size_t steps() const { return count_; }

  // Copy symbol i's window (oldest -> newest) into out[0..window).
  void copy_window(std::size_t symbol, double* out) const;

  // Unwrap every symbol's window into `arena` (size symbols·window, row-major:
  // symbol i occupies arena[i·window .. (i+1)·window), oldest -> newest).
  // One O(n·M) pass shared by all pairs of the step.
  void unwrap_all(double* arena) const;

  // True when symbol i's window holds one identical value in every slot —
  // zero dispersion, which running sums cannot detect through their own
  // roundoff residue. Tracked via value run lengths, O(1).
  bool constant_window(std::size_t symbol) const {
    return run_length_[symbol] >= window_;
  }

  double sum(std::size_t symbol) const { return sum_[symbol]; }
  double sum_sq(std::size_t symbol) const { return sum_sq_[symbol]; }
  double cross_sum(std::size_t i, std::size_t j) const;

  // Incremental windowed Pearson from the running sums. Requires ready() and
  // cross-sum tracking.
  double pearson(std::size_t i, std::size_t j) const;

  // Full-matrix Pearson: every entry equals pearson(i, j) bit-for-bit, but
  // computed by one linear walk over the packed triangles with per-symbol
  // variances hoisted out of the inner loop. Diagonal is set to 1. Requires
  // ready() and cross-sum tracking.
  void pearson_matrix(SymMatrix& out) const;

  // The same entries without the diagonal, written to out[0 .. n(n-1)/2) in
  // canonical all_pairs order (the packed strict upper triangle).
  void pearson_pairs(double* out) const;

 private:
  void rebuild_sums();
  // Shared row walk behind pearson_matrix / pearson_pairs.
  void pearson_rows(double* out, bool unit_diagonal) const;

  std::size_t symbols_;
  std::size_t window_;
  std::size_t head_ = 0;   // slot that the next push writes
  std::size_t count_ = 0;  // total pushes so far
  std::vector<double> data_;  // [symbol * window + slot]
  std::vector<double> sum_, sum_sq_;
  // Run length of identical trailing values per symbol: a run >= window means
  // the window is exactly constant (zero variance), which running sums cannot
  // detect reliably through their own roundoff residue.
  std::vector<double> last_value_;
  std::vector<std::size_t> run_length_;
  // Scratch reused by push(): the evicted column, staged so the cross-sum
  // update can fuse eviction and insertion into one pass over the triangle.
  std::vector<double> evict_scratch_;
  // Scratch reused by pearson_matrix(): per-symbol variance + degeneracy.
  // Degeneracy is stored as 0.0/1.0 doubles so the SIMD row kernel can load
  // and mask it without a widening conversion.
  mutable std::vector<double> variance_scratch_;
  mutable std::vector<double> degenerate_scratch_;
  SymMatrix cross_;  // Σ x_i x_j, including i == j on the diagonal (== sum_sq)
};

}  // namespace mm::stats
