// Tests for the serial and parallel market-wide correlation engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>

#include "common/rng.hpp"
#include "mpmini/collectives.hpp"
#include "mpmini/environment.hpp"
#include "stats/corr_engine.hpp"
#include "stats/psd.hpp"

namespace mm::stats {
namespace {

// Deterministic lockstep return stream with factor structure.
std::vector<std::vector<double>> make_stream(std::size_t symbols, std::size_t steps,
                                             std::uint64_t seed) {
  mm::Rng rng(seed);
  std::vector<std::vector<double>> stream(steps, std::vector<double>(symbols));
  for (auto& step : stream) {
    const double f = rng.normal();
    for (auto& r : step) r = 0.7 * f + rng.normal();
  }
  return stream;
}

TEST(CorrelationCalculator, NotReadyBeforeWindowFills) {
  CorrEngineConfig cfg;
  cfg.window = 10;
  CorrelationCalculator calc(cfg, 3);
  const auto stream = make_stream(3, 9, 1);
  for (const auto& r : stream) calc.push(r);
  EXPECT_FALSE(calc.ready());
  calc.push(stream[0]);
  EXPECT_TRUE(calc.ready());
}

TEST(CorrelationCalculator, MatrixHasUnitDiagonalAndSymmetry) {
  CorrEngineConfig cfg;
  cfg.window = 20;
  CorrelationCalculator calc(cfg, 4);
  for (const auto& r : make_stream(4, 50, 2)) calc.push(r);
  const auto m = calc.matrix();
  ASSERT_EQ(m.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(m(i, i), 1.0);
    for (std::size_t j = i + 1; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(m(i, j), m(j, i));
      EXPECT_LE(m(i, j), 1.0);
      EXPECT_GE(m(i, j), -1.0);
    }
  }
}

TEST(CorrelationCalculator, FactorStructureDetected) {
  CorrEngineConfig cfg;
  cfg.window = 200;
  CorrelationCalculator calc(cfg, 3);
  for (const auto& r : make_stream(3, 400, 3)) calc.push(r);
  // 0.7 factor load on unit noise: corr = 0.49/1.49 ~ 0.33.
  const auto m = calc.matrix();
  EXPECT_NEAR(m(0, 1), 0.33, 0.15);
  EXPECT_NEAR(m(0, 2), 0.33, 0.15);
}

class EngineCtypes : public ::testing::TestWithParam<Ctype> {};
INSTANTIATE_TEST_SUITE_P(AllTypes, EngineCtypes,
                         ::testing::Values(Ctype::pearson, Ctype::maronna,
                                           Ctype::combined));

TEST_P(EngineCtypes, PairMatchesBatchEstimator) {
  CorrEngineConfig cfg;
  cfg.type = GetParam();
  cfg.window = 30;
  CorrelationCalculator calc(cfg, 3);
  std::vector<std::vector<double>> history(3);
  for (const auto& r : make_stream(3, 100, 4)) {
    calc.push(r);
    for (std::size_t i = 0; i < 3; ++i) history[i].push_back(r[i]);
  }
  std::vector<double> x(30), y(30);
  for (std::size_t i = 0; i < 30; ++i) {
    x[i] = history[0][70 + i];
    y[i] = history[2][70 + i];
  }
  const double batch = correlation(GetParam(), x.data(), y.data(), 30, cfg.maronna);
  EXPECT_NEAR(calc.pair(0, 2), batch, 1e-9);
}

TEST(CorrelationCalculator, PsdRepairProducesPsdMaronnaMatrix) {
  CorrEngineConfig cfg;
  cfg.type = Ctype::maronna;
  cfg.window = 12;  // short windows + robust pairwise = likely not PSD
  cfg.repair_psd = true;
  CorrelationCalculator calc(cfg, 8);
  for (const auto& r : make_stream(8, 40, 5)) calc.push(r);
  EXPECT_TRUE(is_psd(calc.matrix(), 1e-7));
}

TEST(CorrelationCalculator, ColdMaronnaVectorsMatchPerPairEstimatorBitwise) {
  // Past one 64-symbol tile, with two constant-return symbols (MAD zero: one
  // floored cold start per pair with a live symbol, correlation 0 for the
  // pair of them), the per-symbol scale table must reproduce the per-pair
  // estimator bit for bit at every step.
  constexpr std::size_t n = 70;
  constexpr std::size_t window = 24;
  constexpr std::size_t flat_a = 5;
  constexpr std::size_t flat_b = 66;
  CorrEngineConfig cfg;
  cfg.type = Ctype::maronna;
  cfg.window = window;
  CorrelationCalculator calc(cfg, n);
  auto stream = make_stream(n, window + 12, 6);
  for (auto& r : stream) r[flat_a] = r[flat_b] = 0.0;

  std::vector<std::vector<double>> history(n);
  std::vector<double> x(window), y(window);
  CorrVectors vectors;
  std::size_t steps = 0;
  for (const auto& r : stream) {
    calc.push(r);
    for (std::size_t i = 0; i < n; ++i) history[i].push_back(r[i]);
    if (!calc.ready()) continue;
    calc.vectors_into(vectors);
    ASSERT_EQ(vectors.maronna.size(), n * (n - 1) / 2);
    const std::size_t lo = history[0].size() - window;
    for (std::size_t i = 0; i < n; ++i) {
      std::copy(history[i].begin() + lo, history[i].end(), x.begin());
      for (std::size_t j = i + 1; j < n; ++j) {
        std::copy(history[j].begin() + lo, history[j].end(), y.begin());
        const double expected =
            maronna_estimate(x.data(), y.data(), window, cfg.maronna).correlation;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(vectors.maronna[pair_slot(n, i, j)]),
                  std::bit_cast<std::uint64_t>(expected))
            << "pair (" << i << "," << j << ") at ready step " << steps;
      }
    }
    ++steps;
  }
  EXPECT_EQ(steps, 13u);
  EXPECT_EQ(vectors.maronna[pair_slot(n, flat_a, flat_b)], 0.0);
}

// Every step's canonical vectors from a serial calculator (empty until the
// windows fill) — the reference the parallel engine must reproduce exactly.
std::vector<CorrVectors> serial_steps(const CorrEngineConfig& cfg, std::size_t symbols,
                                      const std::vector<std::vector<double>>& stream) {
  CorrelationCalculator calc(cfg, symbols);
  std::vector<CorrVectors> out(stream.size());
  for (std::size_t t = 0; t < stream.size(); ++t) {
    calc.push(stream[t]);
    if (calc.ready()) calc.vectors_into(out[t]);
  }
  return out;
}

// Runs `stream` through a `ranks`-rank engine: the leader steps it, checks
// every step against `expected` and reports its reshard count; the replicas
// serve.
void run_engine_against(int ranks, const CorrEngineConfig& cfg, std::size_t symbols,
                        const std::vector<std::vector<double>>& stream,
                        const std::vector<CorrVectors>& expected,
                        const mpi::FaultPlan& fault,
                        std::chrono::milliseconds deadline,
                        std::uint64_t* reshards) {
  mpi::Environment::run(
      ranks,
      [&](mpi::Comm& comm) {
        ParallelCorrelationEngine engine(comm, cfg, symbols, nullptr, deadline);
        if (!engine.leader()) {
          engine.serve();
          return;
        }
        for (std::size_t t = 0; t < stream.size(); ++t) {
          const auto& got = engine.step(stream[t]);
          EXPECT_EQ(got.pearson, expected[t].pearson) << "step " << t;
          EXPECT_EQ(got.maronna, expected[t].maronna) << "step " << t;
        }
        engine.finish();
        *reshards = engine.reshards();
      },
      fault);
}

class ParallelEngineRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, ParallelEngineRanks, ::testing::Values(1, 2, 3, 5));

TEST_P(ParallelEngineRanks, MatchesSerialExactly) {
  const int ranks = GetParam();
  // A small Pearson universe, and one past the 64-symbol pair tile with both
  // estimators, so the shards span several tiles.
  struct Input {
    std::size_t symbols;
    Ctype type;
  };
  for (const Input input : {Input{6, Ctype::pearson}, Input{70, Ctype::combined}}) {
    CorrEngineConfig cfg;
    cfg.type = input.type;
    cfg.window = 15;
    const auto stream = make_stream(input.symbols, 40, 6);
    const auto expected = serial_steps(cfg, input.symbols, stream);
    ASSERT_EQ(expected.back().pearson.size(), input.symbols * (input.symbols - 1) / 2);

    std::uint64_t reshards = 0;
    run_engine_against(ranks, cfg, input.symbols, stream, expected, {},
                       std::chrono::milliseconds{0}, &reshards);
    EXPECT_EQ(reshards, 0u);
  }
}

TEST(ParallelEngine, EmptyMatrixBeforeWarmup) {
  CorrEngineConfig cfg;
  cfg.window = 50;
  mpi::Environment::run(2, [&](mpi::Comm& comm) {
    ParallelCorrelationEngine engine(comm, cfg, 4);
    if (!engine.leader()) {
      engine.serve();
      return;
    }
    const auto& v = engine.step(std::vector<double>(4, 0.01));
    EXPECT_FALSE(engine.ready());
    EXPECT_TRUE(v.pearson.empty());
    EXPECT_TRUE(v.maronna.empty());
    engine.finish();
  });
}

// Resharding keeps the leader's vectors bit-identical: a replica killed
// mid-day misses its deadline, the leader stands in for its block and the
// pairs reshard over the survivor.
TEST(ParallelEngineFaults, KilledReplicaReshardsWithIdenticalVectors) {
  constexpr std::size_t symbols = 12;
  CorrEngineConfig cfg;
  cfg.type = Ctype::combined;
  cfg.window = 10;
  const auto stream = make_stream(symbols, 60, 31);
  const auto expected = serial_steps(cfg, symbols, stream);

  // Rank 1 spends one op per round and two once the windows fill (step 9),
  // so op 30 lands around step 19 of 60.
  mpi::FaultPlan fault;
  fault.kill_rank = 1;
  fault.kill_at_op = 30;
  std::uint64_t reshards = 0;
  EXPECT_THROW(run_engine_against(3, cfg, symbols, stream, expected, fault,
                                  std::chrono::milliseconds{1000}, &reshards),
               mpi::RankKilled);
  EXPECT_GE(reshards, 1u);
}

// Duplicated round and shard frames are dropped by their round numbers: the
// vectors stay exact and no replica is resharded away.
TEST(ParallelEngineFaults, DuplicatedFramesLeaveVectorsExact) {
  constexpr std::size_t symbols = 12;
  CorrEngineConfig cfg;
  cfg.type = Ctype::combined;
  cfg.window = 10;
  const auto stream = make_stream(symbols, 60, 37);
  const auto expected = serial_steps(cfg, symbols, stream);

  mpi::FaultPlan fault;
  fault.seed = 2026;
  fault.duplicate_prob = 0.3;
  std::uint64_t reshards = 0;
  run_engine_against(3, cfg, symbols, stream, expected, fault,
                     std::chrono::milliseconds{10000}, &reshards);
  EXPECT_EQ(reshards, 0u);
}

TEST(TiledPairs, CoversEveryPairExactlyOnce) {
  for (const std::size_t n : {2u, 5u, 9u, 64u, 130u}) {
    for (const std::size_t tile : {0u, 1u, 3u, 64u, 200u}) {
      const auto pairs = tiled_pairs(n, tile);
      ASSERT_EQ(pairs.size(), n * (n - 1) / 2) << "n=" << n << " tile=" << tile;
      std::vector<char> seen(pairs.size(), 0);
      for (const auto& p : pairs) {
        ASSERT_LT(p.i, p.j);
        ASSERT_LT(p.j, n);
        char& slot = seen[pair_slot(n, p.i, p.j)];
        EXPECT_EQ(slot, 0) << "duplicate (" << p.i << "," << p.j << ")";
        slot = 1;
      }
    }
  }
}

TEST(TiledPairs, DegeneratesToRowMajorWhenTileCoversUniverse) {
  const auto canonical = all_pairs(7);
  for (const std::size_t tile : {0u, 7u, 100u}) {
    const auto pairs = tiled_pairs(7, tile);
    ASSERT_EQ(pairs.size(), canonical.size());
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      EXPECT_EQ(pairs[k].i, canonical[k].i);
      EXPECT_EQ(pairs[k].j, canonical[k].j);
    }
  }
}

TEST(ParallelEngine, ShardsCoverAllPairsExactlyOnce) {
  constexpr std::size_t symbols = 9;  // 36 pairs
  mpi::Environment::run(4, [&](mpi::Comm& comm) {
    CorrEngineConfig cfg;
    cfg.window = 5;
    ParallelCorrelationEngine engine(comm, cfg, symbols);
    const auto total = mpi::allreduce_value(
        comm, static_cast<int>(engine.local_pair_count()), mpi::Sum{});
    EXPECT_EQ(total, 36);
    // Balanced within 1.
    EXPECT_GE(engine.local_pair_count(), 36u / 4);
    EXPECT_LE(engine.local_pair_count(), 36u / 4 + 1);
  });
}

}  // namespace
}  // namespace mm::stats
