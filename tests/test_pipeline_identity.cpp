// Bit-identity of the Fig. 1 pipeline against the direct Approach-3 backtest
// (compute_market_corr_series + run_pair_day, one PairStrategy per pair):
//   * a Maronna and a Combined strategy, on one and on two correlation ranks;
//   * the wide-day shape — two Pearson strategies at W = 60 and W = 120 over
//     every pair of 24 symbols, so the strategy stage's PairBook runs
//     strategy-wide state at two history depths.
// Trade counts and every strategy's pnl must match bit for bit.
#include <gtest/gtest.h>

#include <string>

#include "common/strings.hpp"
#include "core/backtester.hpp"
#include "engine/pipeline.hpp"
#include "marketdata/bars.hpp"
#include "marketdata/cleaner.hpp"

namespace mm::engine {
namespace {

constexpr std::size_t kSymbols = 5;

core::StrategyParams robust_params(stats::Ctype ctype) {
  core::StrategyParams p = core::ParamGrid::base();
  p.ctype = ctype;
  p.divergence = 0.0005;
  return p;
}

// The direct path's BAM matrix: the pipeline's cleaning and sampling, with
// never-quoted symbols seeded from the universe's base price as the snapshot
// stage does.
std::vector<std::vector<double>> direct_bam(const md::Universe& universe,
                                            const std::vector<md::Quote>& quotes,
                                            const PipelineConfig& cfg,
                                            std::int64_t delta_s) {
  const std::size_t n = cfg.symbols;
  md::QuoteCleaner cleaner(n, cfg.cleaner);
  const auto cleaned = cleaner.clean(quotes);
  const md::Session session;
  auto bam = md::sample_bam_series(cleaned, n, session, delta_s);
  std::vector<bool> seen(n, false);
  std::size_t qi = 0;
  const auto smax = static_cast<std::size_t>(session.interval_count(delta_s));
  for (std::size_t s = 0; s < smax; ++s) {
    const auto end = session.interval_end(static_cast<std::int64_t>(s), delta_s);
    for (; qi < cleaned.size() && cleaned[qi].ts_ms < end; ++qi)
      seen[cleaned[qi].symbol] = true;
    for (std::size_t i = 0; i < n; ++i)
      if (!seen[i]) bam[i][s] = universe.base_price[i];
  }
  return bam;
}

TEST(Pipeline, MaronnaAndCombinedMatchDirectBacktestBitForBit) {
  const auto universe = md::make_universe(kSymbols);
  md::GeneratorConfig gen;
  gen.quote_rate = 0.15;
  const md::SyntheticDay day(universe, gen, 4);

  PipelineConfig cfg;
  cfg.symbols = kSymbols;
  cfg.strategies = {robust_params(stats::Ctype::maronna),
                    robust_params(stats::Ctype::combined)};
  const auto& base = cfg.strategies.front();

  // Direct path: one Maronna-bearing series serves both strategies.
  const auto bam = direct_bam(universe, day.quotes(), cfg, base.delta_s);
  const auto market = core::compute_market_corr_series(bam, base.corr_window, true);
  const auto pairs = stats::all_pairs(kSymbols);
  std::vector<std::uint64_t> direct_trades;
  std::vector<std::string> direct_pnl;
  for (const auto& params : cfg.strategies) {
    std::uint64_t trades = 0;
    double pnl = 0.0;
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      for (const auto& t :
           core::run_pair_day(params, bam[pairs[k].i], bam[pairs[k].j], market, k)) {
        ++trades;
        pnl += t.pnl;
      }
    }
    EXPECT_GT(trades, 0u) << stats::to_string(params.ctype);
    direct_trades.push_back(trades);
    direct_pnl.push_back(format("%a", pnl));
  }

  for (const int replicas : {1, 2}) {
    cfg.correlation_replicas = replicas;
    const auto streamed = run_pipeline(cfg, universe, day.quotes());
    ASSERT_FALSE(streamed.degraded) << "replicas " << replicas;
    const auto& summaries = streamed.master.strategy_summaries;
    ASSERT_EQ(summaries.size(), cfg.strategies.size());
    for (std::size_t s = 0; s < summaries.size(); ++s) {
      EXPECT_EQ(summaries[s].trades, direct_trades[s])
          << "replicas " << replicas << " strategy " << s;
      EXPECT_EQ(format("%a", summaries[s].total_pnl), direct_pnl[s])
          << "replicas " << replicas << " strategy " << s;
    }
  }
}

TEST(Pipeline, WidePearsonDayMatchesDirectBacktestBitForBit) {
  constexpr std::size_t n = 24;
  const auto universe = md::make_universe(n);
  md::GeneratorConfig gen;
  gen.quote_rate = 0.3;
  const md::SyntheticDay day(universe, gen, 1);

  PipelineConfig cfg;
  cfg.symbols = n;
  core::StrategyParams w60 = core::ParamGrid::base();
  core::StrategyParams w120 = w60;
  w120.avg_window = 120;
  cfg.strategies = {w60, w120};

  const auto bam = direct_bam(universe, day.quotes(), cfg, w60.delta_s);
  const auto market = core::compute_market_corr_series(bam, w60.corr_window, false);
  const auto pairs = stats::all_pairs(n);
  std::vector<std::uint64_t> direct_trades;
  std::vector<std::string> direct_pnl;
  std::uint64_t all_trades = 0;
  for (const auto& params : cfg.strategies) {
    std::uint64_t trades = 0;
    double pnl = 0.0;
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      for (const auto& t :
           core::run_pair_day(params, bam[pairs[k].i], bam[pairs[k].j], market, k)) {
        ++trades;
        pnl += t.pnl;
      }
    }
    EXPECT_GT(trades, 0u) << "W=" << params.avg_window;
    direct_trades.push_back(trades);
    direct_pnl.push_back(format("%a", pnl));
    all_trades += trades;
  }

  const auto streamed = run_pipeline(cfg, universe, day.quotes());
  ASSERT_FALSE(streamed.degraded);
  const auto& summaries = streamed.master.strategy_summaries;
  ASSERT_EQ(summaries.size(), cfg.strategies.size());
  for (std::size_t s = 0; s < summaries.size(); ++s) {
    EXPECT_EQ(summaries[s].trades, direct_trades[s]) << "strategy " << s;
    EXPECT_EQ(format("%a", summaries[s].total_pnl), direct_pnl[s]) << "strategy " << s;
  }
  EXPECT_EQ(streamed.master.orders, 2 * all_trades);

  // Each strategy stage sends one OrderBatch per interval with orders plus
  // its summary (records_out) and counts the orders in them (items_out).
  std::uint64_t stage_orders = 0;
  for (const auto& stage : streamed.stages) {
    if (stage.name.rfind("strategy-", 0) != 0) continue;
    EXPECT_GE(stage.records_out, 2u) << stage.name;
    EXPECT_LE(stage.records_out, 780u + 1u) << stage.name;
    stage_orders += stage.items_out;
  }
  EXPECT_EQ(stage_orders, streamed.master.orders);
}

}  // namespace
}  // namespace mm::engine
