// Golden tests for the stateful correlation kernels: the engine's Maronna
// entries must equal the batch estimator bit for bit through outlier bursts
// and degenerate stretches, under any rank count, and the blocked Pearson
// matrix kernel must equal the element-wise incremental path bit-for-bit.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "mpmini/collectives.hpp"
#include "mpmini/environment.hpp"
#include "obs/registry.hpp"
#include "stats/corr_engine.hpp"
#include "stats/maronna.hpp"
#include "stats/windows.hpp"

namespace mm::stats {
namespace {

// 500-step correlated return stream with two adversarial episodes:
//   * steps 120..134 — fat-finger outlier bursts on symbols 0 and 2
//     (alternating sign, 500× the return scale),
//   * steps 250..309 — symbol 1 freezes (exactly constant value), long
//     enough to drive its whole window degenerate and out again.
std::vector<std::vector<double>> golden_stream(std::size_t symbols,
                                               std::size_t steps,
                                               std::uint64_t seed) {
  mm::Rng rng(seed);
  std::vector<std::vector<double>> out(steps, std::vector<double>(symbols));
  for (std::size_t s = 0; s < steps; ++s) {
    const double f = rng.normal();
    for (std::size_t i = 0; i < symbols; ++i)
      out[s][i] = 1e-4 * (0.7 * f + rng.normal());
    if (s >= 120 && s < 135) {
      out[s][0] = (s % 2 == 0 ? 5e-2 : -5e-2);
      out[s][2] = (s % 2 == 0 ? -5e-2 : 5e-2);
    }
    if (s >= 250 && s < 310) out[s][1] = 2.5e-4;
  }
  return out;
}

TEST(CorrelationCalculator, MaronnaDegenerateStretchesMatchBatchExactly) {
  // While a window is partly or exactly constant the engine's per-symbol
  // medians/MADs engage the batch estimator's dispersion floors, so it must
  // reproduce the batch estimator bit-for-bit (including its "zero
  // dispersion -> correlation 0" convention).
  constexpr std::size_t symbols = 3;
  constexpr std::size_t window = 20;
  const auto stream = golden_stream(symbols, 400, 7);

  CorrEngineConfig cfg;
  cfg.type = Ctype::maronna;
  cfg.window = window;
  cfg.maronna.tolerance = 1e-12;
  cfg.maronna.max_iterations = 2000;
  CorrelationCalculator calc(cfg, symbols);

  std::vector<std::vector<double>> history(symbols);
  std::vector<double> wx(window), wy(window);
  for (const auto& r : stream) {
    calc.push(r);
    for (std::size_t i = 0; i < symbols; ++i) history[i].push_back(r[i]);
    if (!calc.ready()) continue;
    const std::size_t steps = history[0].size();
    // Symbol 1 is frozen over steps 250..310: its windows pass through
    // partially- and fully-degenerate states. Compare against batch.
    if (steps >= 260 && steps <= 340) {
      const std::size_t lo = steps - window;
      for (std::size_t t = 0; t < window; ++t) {
        wx[t] = history[0][lo + t];
        wy[t] = history[1][lo + t];
      }
      const double batch = maronna(wx.data(), wy.data(), window, cfg.maronna);
      EXPECT_EQ(calc.pair(0, 1), batch) << "at step " << steps;
    }
  }
}

TEST(MadIsZero, MatchesMedianDefinition) {
  // A zero MAD — the test that engages the cold start's dispersion floor —
  // must agree with "a strict majority of values coincide".
  MaronnaScratch scratch;
  const auto mad_is_zero = [&](const std::vector<double>& v) {
    return robust_scale(v.data(), v.size(), scratch).mad == 0.0;
  };
  EXPECT_TRUE(mad_is_zero({1.0, 1.0, 1.0, 2.0, 3.0}));
  EXPECT_FALSE(mad_is_zero({1.0, 1.0, 2.0, 2.0, 3.0}));
  EXPECT_TRUE(mad_is_zero({4.0, 4.0, 4.0, 4.0}));
  EXPECT_FALSE(mad_is_zero({1.0, 2.0}));
  // Exactly half is not a majority (even n: the upper middle deviation is
  // nonzero, so the MAD is nonzero).
  EXPECT_FALSE(mad_is_zero({5.0, 5.0, 1.0, 2.0}));
}

TEST(PearsonMatrix, EqualsElementwisePearsonExactly) {
  constexpr std::size_t symbols = 9;
  constexpr std::size_t window = 25;
  const auto stream = golden_stream(symbols, 300, 13);
  ReturnWindows w(symbols, window, true);
  SymMatrix m;
  // The canonical pair-vector form of the same kernel.
  std::vector<double> pairs(symbols * (symbols - 1) / 2);
  for (const auto& r : stream) {
    w.push(r);
    if (!w.ready()) continue;
    w.pearson_matrix(m);
    w.pearson_pairs(pairs.data());
    ASSERT_EQ(m.size(), symbols);
    for (std::size_t i = 0; i < symbols; ++i) {
      ASSERT_DOUBLE_EQ(m(i, i), 1.0);
      for (std::size_t j = i + 1; j < symbols; ++j) {
        ASSERT_DOUBLE_EQ(m(i, j), w.pearson(i, j))
            << "pair (" << i << "," << j << ")";
        ASSERT_EQ(pairs[pair_slot(symbols, i, j)], w.pearson(i, j))
            << "pair (" << i << "," << j << ")";
      }
    }
  }
}

TEST(UnwrapAll, MatchesCopyWindowForEverySymbol) {
  constexpr std::size_t symbols = 4;
  constexpr std::size_t window = 7;
  const auto stream = golden_stream(symbols, 40, 17);
  ReturnWindows w(symbols, window, false);
  std::vector<double> arena(symbols * window);
  std::vector<double> reference(window);
  for (const auto& r : stream) {
    w.push(r);
    if (!w.ready()) continue;
    w.unwrap_all(arena.data());
    for (std::size_t i = 0; i < symbols; ++i) {
      w.copy_window(i, reference.data());
      for (std::size_t t = 0; t < window; ++t)
        ASSERT_DOUBLE_EQ(arena[i * window + t], reference[t]);
    }
  }
}

TEST(ParallelEngine, MaronnaMatchesSerialAcrossRankCounts) {
  // Every Maronna estimate depends only on its pair's windows, so the
  // parallel engine must produce identical vectors under any rank count.
  constexpr std::size_t symbols = 6;
  CorrEngineConfig cfg;
  cfg.type = Ctype::maronna;
  cfg.window = 15;
  const auto stream = golden_stream(symbols, 60, 23);

  CorrelationCalculator serial(cfg, symbols);
  CorrVectors expected;
  for (const auto& r : stream) {
    serial.push(r);
    if (serial.ready()) serial.vectors_into(expected);
  }

  for (int ranks : {1, 3}) {
    obs::Registry registry;
    mpi::Environment::run(ranks, [&](mpi::Comm& comm) {
      ParallelCorrelationEngine engine(comm, cfg, symbols, &registry);
      if (!engine.leader()) {
        engine.serve();
        return;
      }
      CorrVectors last;
      for (const auto& r : stream) last = engine.step(r);
      engine.finish();
      ASSERT_EQ(last.maronna.size(), symbols * (symbols - 1) / 2);
      EXPECT_EQ(last.maronna, expected.maronna);
      EXPECT_EQ(last.pearson, expected.pearson);
    });
    // Step-phase timings land in the obs histograms: one compute sample per
    // rank per ready step.
    const auto snap = registry.snapshot();
    const auto* compute = snap.find("corr.step.compute_ns");
    ASSERT_NE(compute, nullptr);
    EXPECT_GT(compute->count, 0u);
  }
}

}  // namespace
}  // namespace mm::stats
