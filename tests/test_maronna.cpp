// Tests for the Maronna robust correlation estimator — the property the
// paper uses it for: agreement with Pearson on clean data, resistance to the
// outliers that destroy Pearson.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "stats/maronna.hpp"
#include "stats/pearson.hpp"

namespace mm::stats {
namespace {

struct CleanPair {
  std::vector<double> x, y;
  double target;
};

CleanPair make_correlated(std::size_t n, double factor_load, std::uint64_t seed) {
  mm::Rng rng(seed);
  CleanPair out;
  out.x.resize(n);
  out.y.resize(n);
  const double a = factor_load;
  for (std::size_t i = 0; i < n; ++i) {
    const double f = rng.normal();
    out.x[i] = a * f + rng.normal();
    out.y[i] = a * f + rng.normal();
  }
  out.target = a * a / (a * a + 1.0);
  return out;
}

TEST(Maronna, AgreesWithPearsonOnCleanGaussian) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const auto p = make_correlated(2000, 1.2, seed);
    const double mr = maronna(p.x, p.y);
    const double pr = pearson(p.x, p.y);
    EXPECT_NEAR(mr, pr, 0.05) << "seed " << seed;
  }
}

TEST(Maronna, RecoversTargetCorrelation) {
  const auto p = make_correlated(20000, 1.0, 7);
  EXPECT_NEAR(maronna(p.x, p.y), 0.5, 0.03);
}

TEST(Maronna, PerfectCorrelationDegenerate) {
  std::vector<double> x(50), y(50);
  for (std::size_t i = 0; i < 50; ++i) {
    x[i] = static_cast<double>(i) * 0.1 - 2.0;
    y[i] = 3.0 * x[i] + 1.0;
  }
  EXPECT_NEAR(maronna(x, y), 1.0, 0.05);
}

TEST(Maronna, ResistsOutliersThatDestroyPearson) {
  auto p = make_correlated(100, 2.0, 11);
  const double clean_m = maronna(p.x, p.y);
  const double clean_p = pearson(p.x, p.y);
  EXPECT_GT(clean_p, 0.7);

  // Contaminate 5% of points with adversarial (anti-correlated, huge) values.
  for (std::size_t i = 0; i < p.x.size(); i += 20) {
    p.x[i] = 50.0;
    p.y[i] = -50.0;
  }
  const double dirty_m = maronna(p.x, p.y);
  const double dirty_p = pearson(p.x, p.y);

  EXPECT_LT(dirty_p, 0.0);                       // Pearson wrecked
  EXPECT_GT(dirty_m, 0.55);                      // Maronna holds
  EXPECT_LT(std::abs(dirty_m - clean_m), 0.25);  // close to its clean value
}

TEST(Maronna, SingleFatFingerBarelyMoves) {
  auto p = make_correlated(100, 2.0, 13);
  const double clean = maronna(p.x, p.y);
  p.x[50] = 1000.0;
  p.y[50] = -1000.0;
  EXPECT_NEAR(maronna(p.x, p.y), clean, 0.1);
}

TEST(Maronna, ZeroDispersionReturnsZero) {
  const std::vector<double> c(20, 1.5);
  EXPECT_DOUBLE_EQ(maronna(c, c), 0.0);
}

TEST(Maronna, ReportsConvergence) {
  const auto p = make_correlated(500, 1.0, 17);
  const auto result = maronna_estimate(p.x.data(), p.y.data(), p.x.size());
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.iterations, 0);
  EXPECT_LE(result.iterations, 50);
  EXPECT_GT(result.scatter_xx, 0.0);
  EXPECT_GT(result.scatter_yy, 0.0);
}

TEST(Maronna, LocationEstimateIsRobust) {
  mm::Rng rng(19);
  std::vector<double> x(200), y(200);
  for (std::size_t i = 0; i < 200; ++i) {
    x[i] = 5.0 + rng.normal();
    y[i] = -3.0 + rng.normal();
  }
  x[0] = 1e4;  // location outlier
  const auto result = maronna_estimate(x.data(), y.data(), x.size());
  EXPECT_NEAR(result.location_x, 5.0, 0.5);
  EXPECT_NEAR(result.location_y, -3.0, 0.5);
}

TEST(Maronna, BoundedOutput) {
  mm::Rng rng(23);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> x(30), y(30);
    for (std::size_t i = 0; i < 30; ++i) {
      x[i] = rng.student_t(3.0);
      y[i] = rng.student_t(3.0);
    }
    const double r = maronna(x, y);
    EXPECT_GE(r, -1.0);
    EXPECT_LE(r, 1.0);
  }
}

class MaronnaWindowSizes : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(PaperWindows, MaronnaWindowSizes,
                         ::testing::Values<std::size_t>(50, 100, 200));

TEST_P(MaronnaWindowSizes, StableAcrossPaperWindowLengths) {
  // Table I's M values: the estimator must behave on every window size the
  // grid uses.
  const auto p = make_correlated(GetParam(), 1.5, 29);
  const double r = maronna(p.x, p.y);
  EXPECT_GT(r, 0.4);
  EXPECT_LE(r, 1.0);
}

TEST(Maronna, ScratchOverloadMatchesConvenienceBitwise) {
  // The scratch-taking overload is the same algorithm routed through reused
  // buffers; it must agree with the allocating convenience form bit-for-bit,
  // including when the scratch arrives oversized from a previous larger pair.
  MaronnaScratch scratch;
  scratch.values.resize(4096);
  scratch.dev.resize(4096);
  for (std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    const auto p = make_correlated(100, 1.2, seed);
    const auto a = maronna_estimate(p.x.data(), p.y.data(), p.x.size());
    const auto b =
        maronna_estimate(p.x.data(), p.y.data(), p.x.size(), {}, scratch);
    EXPECT_EQ(a.correlation, b.correlation) << "seed " << seed;
    EXPECT_EQ(a.scatter_xx, b.scatter_xx);
    EXPECT_EQ(a.scatter_xy, b.scatter_xy);
    EXPECT_EQ(a.scatter_yy, b.scatter_yy);
    EXPECT_EQ(a.location_x, b.location_x);
    EXPECT_EQ(a.location_y, b.location_y);
    EXPECT_EQ(a.iterations, b.iterations);
  }
}

// Every MaronnaResult field in hex-float: equal strings mean equal bits.
std::string fields(const MaronnaResult& r) {
  return format("corr=%a loc=(%a,%a) scatter=(%a,%a,%a) q=%a it=%d converged=%d",
                r.correlation, r.location_x, r.location_y, r.scatter_xx,
                r.scatter_xy, r.scatter_yy, r.contraction, r.iterations,
                r.converged ? 1 : 0);
}

// Windows covering each branch of the cold start: random odd and even n, a
// heavy outlier, x with a strict-majority value (MAD zero, one floor
// engaged) and both samples with one (both MADs zero, correlation 0).
std::vector<CleanPair> cold_start_cases() {
  std::vector<CleanPair> cases;
  cases.push_back(make_correlated(61, 1.2, 5));
  auto outlier = make_correlated(100, 1.2, 6);
  outlier.x[7] = 40.0;
  cases.push_back(outlier);
  auto one_flat = make_correlated(41, 1.0, 7);
  for (std::size_t i = 0; i < 21; ++i) one_flat.x[2 * i] = 0.25;
  cases.push_back(one_flat);
  auto both_flat = one_flat;
  for (std::size_t i = 0; i < 21; ++i) both_flat.y[2 * i] = -0.5;
  cases.push_back(both_flat);
  return cases;
}

TEST(RobustScale, MedianAndMadOfKnownSamples) {
  MaronnaScratch scratch;
  std::vector<double> v = {3.0, 1.0, 2.0};
  auto s = robust_scale(v.data(), v.size(), scratch);
  EXPECT_EQ(s.median, 2.0);
  EXPECT_EQ(s.mad, 1.4826);
  v = {4.0, 1.0, 3.0, 2.0};  // even n: midpoint of the two middle values
  s = robust_scale(v.data(), v.size(), scratch);
  EXPECT_EQ(s.median, 2.5);
  EXPECT_EQ(s.mad, 1.4826);
  // robust_scale permutes only its scratch copy.
  EXPECT_EQ(v, (std::vector<double>{4.0, 1.0, 3.0, 2.0}));
}

TEST(RobustScale, ScaleFormMatchesScratchFormBitwise) {
  // The scale-taking estimator is the scratch form minus its two
  // robust_scale calls; on every field they must agree bit for bit. One
  // scratch serves every sample here, shrinking and growing across lengths.
  auto cases = cold_start_cases();
  for (std::size_t n : {40u, 99u, 2u, 64u}) cases.push_back(make_correlated(n, 0.8, n));
  MaronnaScratch shared;
  for (const auto& c : cases) {
    const std::size_t n = c.x.size();
    const auto sx = robust_scale(c.x.data(), n, shared);
    const auto sy = robust_scale(c.y.data(), n, shared);
    const auto from_scales = maronna_estimate(c.x.data(), c.y.data(), n, sx, sy);
    MaronnaScratch own;
    EXPECT_EQ(fields(from_scales),
              fields(maronna_estimate(c.x.data(), c.y.data(), n, {}, own)))
        << "n = " << n;
    EXPECT_EQ(fields(from_scales),
              fields(maronna_estimate(c.x.data(), c.y.data(), n)))
        << "n = " << n;
  }
}

TEST(Maronna, ColdStartMatchesPinnedReferenceBitwise) {
  // Recorded from the estimator as it stood before the cold start was split
  // into robust_scale + the scale-taking form; the split must not move a bit.
  const char* expected[] = {
      "corr=0x1.0fbec6990df35p-1 loc=(-0x1.236d0c607a5adp-5,-0x1.36a87b8cb7d7bp-4) "
      "scatter=(0x1.3107a748063b6p+1,0x1.03b798bebac9dp+0,0x1.88813e748ba18p+0) "
      "q=0x1.4a3ff77919f46p-2 it=12 converged=1",
      "corr=0x1.f877137fa9f04p-2 loc=(0x1.e07dcda5190b9p-7,-0x1.452425e1aa139p-3) "
      "scatter=(0x1.06e3b18dc02a4p+1,0x1.eb4f5e7c2421fp-1,0x1.d8eafb6fb6e71p+0) "
      "q=0x1.30bea4a9250dbp-3 it=9 converged=1",
      "corr=-0x1.f57e215472fafp-5 loc=(0x1.0be1f978c4041p-2,-0x1.2473fcab2b003p-3) "
      "scatter=(0x1.7308a421bd6b2p-2,-0x1.9bcc77f16603ep-5,0x1.dc652144286p+0) "
      "q=0x1.0e0bc883270ffp-1 it=44 converged=1",
      "corr=0x0p+0 loc=(0x1p-2,-0x1p-1) scatter=(0x0p+0,0x0p+0,0x0p+0) "
      "q=-0x1p+0 it=0 converged=0",
  };
  const auto cases = cold_start_cases();
  ASSERT_EQ(cases.size(), std::size(expected));
  for (std::size_t k = 0; k < cases.size(); ++k)
    EXPECT_EQ(fields(maronna_estimate(cases[k].x.data(), cases[k].y.data(),
                                      cases[k].x.size())),
              expected[k])
        << "case " << k;
}

}  // namespace
}  // namespace mm::stats
