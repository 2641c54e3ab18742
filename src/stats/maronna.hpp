// Maronna robust correlation (bivariate M-estimator of scatter).
//
// Implements the pairwise robust correlation the paper attributes to Maronna
// (1976) and to Chilson et al.'s parallel robust-correlation work [14]: a
// bivariate M-estimator of location and scatter computed by iterative
// reweighting, using a Huber-type weight function. Observations far from the
// current location (in Mahalanobis distance) are smoothly downweighted, so a
// handful of bad ticks cannot swing the estimate the way they swing Pearson.
//
// maronna_estimate starts the fixed point from coordinatewise medians/MADs.
// The median/MAD initialization (robust_scale, two nth_element passes per
// sample) depends on one sample only, so the correlation engine computes it
// once per symbol per step and passes the two scales in; the scratch
// overload computes both itself. Every entry point runs the same
// initialization and map, so all of them agree bit for bit.
//
// The pairwise estimates do NOT assemble into a positive semi-definite
// matrix (the paper's §IV caveat); see psd.hpp for the repair.
#pragma once

#include <cstddef>
#include <vector>

namespace mm::stats {

struct MaronnaConfig {
  // Huber tuning constant on the Mahalanobis distance (in 2 dimensions,
  // d² ~ chi²(2); k² = 5.99 is the 95% quantile).
  double huber_k2 = 5.99;
  // Convergence threshold on the max relative change of scatter entries.
  double tolerance = 1e-6;
  int max_iterations = 50;
};

struct MaronnaResult {
  double correlation = 0.0;
  double location_x = 0.0;
  double location_y = 0.0;
  double scatter_xx = 0.0;
  double scatter_xy = 0.0;
  double scatter_yy = 0.0;
  // Measured linear-convergence ratio |step_k|/|step_{k-1}| of the fixed
  // point (< 0 when never measured). Diagnostic: the iteration converges in
  // ~log(initial error / tolerance) / log(1/contraction) map evaluations.
  double contraction = -1.0;
  int iterations = 0;
  bool converged = false;
};

// Reusable scratch for robust_scale. Routing the sample copy and the
// deviation buffer through one caller-owned scratch makes repeated calls
// allocation-free (capacity is grown once, then reused).
struct MaronnaScratch {
  std::vector<double> values;  // permutable copy for the median
  std::vector<double> dev;     // |v - median| buffer for the MAD
};

// One sample's cold-start initialization: its median and its MAD, scaled by
// 1.4826 to be consistent for the normal. 16 bytes; the engines keep one per
// symbol per step. mad <= 0 (a strict majority of the values coincide)
// makes the cold start engage its dispersion floors.
struct RobustScale {
  double median = 0.0;
  double mad = 0.0;
};

// n must be >= 1. Allocation-free once the scratch capacity has grown to n.
RobustScale robust_scale(const double* v, std::size_t n, MaronnaScratch& scratch);

// Full estimator output. n must be >= 2; degenerate inputs (zero dispersion)
// yield correlation 0. The scale-taking form starts from the given
// robust_scale of x and of y and runs the floors and fixed point; the
// scratch form is two robust_scale calls plus that, allocation-free once
// the scratch capacity has grown to n; the convenience form allocates a
// local scratch per call. All three agree bit for bit.
MaronnaResult maronna_estimate(const double* x, const double* y, std::size_t n,
                               const RobustScale& scale_x,
                               const RobustScale& scale_y,
                               const MaronnaConfig& config = {});
MaronnaResult maronna_estimate(const double* x, const double* y, std::size_t n,
                               const MaronnaConfig& config,
                               MaronnaScratch& scratch);
MaronnaResult maronna_estimate(const double* x, const double* y, std::size_t n,
                               const MaronnaConfig& config = {});

// Correlation-only conveniences.
double maronna(const double* x, const double* y, std::size_t n,
               const MaronnaConfig& config = {});
double maronna(const std::vector<double>& x, const std::vector<double>& y,
               const MaronnaConfig& config = {});

}  // namespace mm::stats
