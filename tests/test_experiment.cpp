// Tests for the §V experiment framework: structure, determinism, a pinned
// golden, serial/parallel equivalence, agreement with the direct per-pair
// backtest, and the report's verdicts on the paper's claims.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include "common/strings.hpp"
#include "core/backtester.hpp"
#include "core/experiment.hpp"
#include "core/metrics.hpp"
#include "core/report.hpp"
#include "engine/pipeline.hpp"
#include "marketdata/bars.hpp"
#include "stats/sym_matrix.hpp"

namespace mm::core {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.symbols = 5;  // 10 pairs
  cfg.days = 2;
  cfg.generator.quote_rate = 0.2;  // keep the test quick
  return cfg;
}

TEST(Experiment, ResultShapeMatchesConfig) {
  const auto result = run_experiment(tiny_config());
  EXPECT_EQ(result.symbols, 5u);
  EXPECT_EQ(result.pair_count, 10u);
  EXPECT_EQ(result.days, 2);
  EXPECT_EQ(result.pair_names.size(), 10u);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(result.monthly_return_plus1[static_cast<std::size_t>(c)].size(), 10u);
    EXPECT_EQ(result.max_daily_drawdown[static_cast<std::size_t>(c)].size(), 10u);
    EXPECT_EQ(result.win_loss[static_cast<std::size_t>(c)].size(), 10u);
  }
  EXPECT_GT(result.quotes_processed, 0u);
  EXPECT_GT(result.total_trades, 0u);
  EXPECT_EQ(result.pair_names[0], "MSFT/IBM");
}

TEST(Experiment, MeasuresInPlausibleRanges) {
  const auto result = run_experiment(tiny_config());
  for (int c = 0; c < 3; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    for (std::size_t p = 0; p < result.pair_count; ++p) {
      // Monthly return +1 must be positive and not absurd.
      EXPECT_GT(result.monthly_return_plus1[ci][p], 0.5);
      EXPECT_LT(result.monthly_return_plus1[ci][p], 3.0);
      // Drawdown is a non-negative fraction.
      EXPECT_GE(result.max_daily_drawdown[ci][p], 0.0);
      EXPECT_LT(result.max_daily_drawdown[ci][p], 1.0);
      EXPECT_GE(result.win_loss[ci][p], 0.0);
    }
  }
}

TEST(Experiment, DeterministicAcrossRuns) {
  const auto a = run_experiment(tiny_config());
  const auto b = run_experiment(tiny_config());
  for (int c = 0; c < 3; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    for (std::size_t p = 0; p < a.pair_count; ++p) {
      EXPECT_DOUBLE_EQ(a.monthly_return_plus1[ci][p], b.monthly_return_plus1[ci][p]);
      EXPECT_DOUBLE_EQ(a.max_daily_drawdown[ci][p], b.max_daily_drawdown[ci][p]);
      EXPECT_DOUBLE_EQ(a.win_loss[ci][p], b.win_loss[ci][p]);
    }
  }
  EXPECT_EQ(a.total_trades, b.total_trades);
}

TEST(Experiment, ParallelMatchesSerialExactly) {
  auto cfg = tiny_config();
  const auto serial = run_experiment(cfg);
  for (int ranks : {2, 3}) {
    cfg.ranks = ranks;
    const auto parallel = run_experiment_parallel(cfg);
    EXPECT_EQ(parallel.total_trades, serial.total_trades) << ranks << " ranks";
    for (int c = 0; c < 3; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      for (std::size_t p = 0; p < serial.pair_count; ++p) {
        ASSERT_DOUBLE_EQ(parallel.monthly_return_plus1[ci][p],
                         serial.monthly_return_plus1[ci][p])
            << ranks << " ranks, pair " << p;
        ASSERT_DOUBLE_EQ(parallel.win_loss[ci][p], serial.win_loss[ci][p]);
      }
    }
  }
}

TEST(Experiment, SeedChangesResults) {
  auto cfg = tiny_config();
  const auto a = run_experiment(cfg);
  cfg.generator.seed = 999;
  const auto b = run_experiment(cfg);
  bool any_different = false;
  for (std::size_t p = 0; p < a.pair_count; ++p)
    if (a.monthly_return_plus1[0][p] != b.monthly_return_plus1[0][p])
      any_different = true;
  EXPECT_TRUE(any_different);
}

ExperimentConfig experiment_golden_config() {
  ExperimentConfig cfg;
  cfg.symbols = 6;  // 15 pairs
  cfg.days = 3;
  cfg.keep_level_detail = true;
  return cfg;
}

// Every measure and level-detail entry in hex-float (equal text means equal
// bits), one line per (measure, Ctype[, level]), then the counters.
std::string dump(const ExperimentResult& r) {
  static const char* names[] = {"Pearson", "Maronna", "Combined"};
  std::string out;
  const auto line = [&](const std::string& label, const std::vector<double>& v) {
    out += label + ":";
    for (double x : v) out += format(" %a", x);
    out += "\n";
  };
  for (std::size_t c = 0; c < 3; ++c) {
    line(format("return %s", names[c]), r.monthly_return_plus1[c]);
    line(format("drawdown %s", names[c]), r.max_daily_drawdown[c]);
    line(format("winloss %s", names[c]), r.win_loss[c]);
  }
  for (std::size_t c = 0; c < 3; ++c)
    for (std::size_t l = 0; l < r.level_win_loss[c].size(); ++l) {
      line(format("L%zu return %s", l + 1, names[c]), r.level_monthly_return_plus1[c][l]);
      line(format("L%zu drawdown %s", l + 1, names[c]), r.level_max_daily_drawdown[c][l]);
      line(format("L%zu winloss %s", l + 1, names[c]), r.level_win_loss[c][l]);
    }
  out += format("trades %llu quotes %zu dropped %zu\n",
                static_cast<unsigned long long>(r.total_trades), r.quotes_processed,
                r.quotes_dropped);
  return out;
}

const char* const kGolden =
#include "experiment_golden.inc"
    ;

// Line-by-line comparison against the golden, so a mismatch names its row.
void expect_golden(const ExperimentResult& result, const std::string& what) {
  std::istringstream want(std::string(kGolden).substr(1));  // drop leading '\n'
  std::istringstream got(dump(result));
  std::string w, g;
  std::size_t lines = 0;
  while (std::getline(want, w)) {
    ASSERT_TRUE(static_cast<bool>(std::getline(got, g))) << what << ": output too short";
    EXPECT_EQ(g, w) << what << ", line " << lines + 1;
    ++lines;
  }
  EXPECT_FALSE(static_cast<bool>(std::getline(got, g))) << what << ": output too long";
  EXPECT_EQ(lines, 9u + 3u * 3u * 14u + 1u);
}

TEST(Experiment, MatchesPinnedGoldenBitwise) {
  expect_golden(run_experiment(experiment_golden_config()), "serial");
}

TEST(Experiment, ParallelMatchesPinnedGoldenForEveryRankCount) {
  // Four ranks over three days leaves rank 3 idle: it contributes no days.
  auto cfg = experiment_golden_config();
  for (int ranks = 1; ranks <= 4; ++ranks) {
    cfg.ranks = ranks;
    expect_golden(run_experiment_parallel(cfg), format("%d ranks", ranks));
  }
}

TEST(Experiment, SweepCellMatchesDirectBacktest) {
  // One day of the sweep, one level, every Ctype and pair: the PairBook
  // replay must equal compute_market_corr_series + run_pair_day.
  auto cfg = experiment_golden_config();
  cfg.days = 1;
  cfg.first_day_index = 4;
  const auto result = run_experiment(cfg);

  const std::size_t level = 5;
  const auto& levels = cfg.grid.levels();
  const md::Universe universe = md::make_universe(cfg.symbols);
  const md::SyntheticDay day(universe, cfg.generator, cfg.first_day_index);
  md::QuoteCleaner cleaner(cfg.symbols, cfg.cleaner);
  const auto bam = md::sample_bam_series(cleaner.clean(day.quotes()), cfg.symbols,
                                         cfg.generator.session, levels[level].delta_s);
  const auto series = compute_market_corr_series(bam, levels[level].corr_window,
                                                 /*need_maronna=*/true, cfg.maronna);
  const auto pairs = stats::all_pairs(cfg.symbols);

  std::size_t trades = 0;
  for (std::size_t c = 0; c < 3; ++c) {
    StrategyParams params = levels[level];
    params.ctype = stats::all_ctypes[c];
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      std::vector<double> returns;
      for (const auto& t : run_pair_day(params, bam[pairs[p].i], bam[pairs[p].j], series, p))
        returns.push_back(t.trade_return);
      trades += returns.size();
      const std::vector<double> daily = {cumulative_return(returns)};
      EXPECT_EQ(result.level_monthly_return_plus1[c][level][p],
                cumulative_return(daily) + 1.0)
          << stats::to_string(params.ctype) << " pair " << p;
      EXPECT_EQ(result.level_max_daily_drawdown[c][level][p], max_drawdown(daily));
      EXPECT_EQ(result.level_win_loss[c][level][p], win_loss(returns).ratio());
    }
  }
  EXPECT_GT(trades, 0u);
}

TEST(Experiment, SweepCellMatchesPipeline) {
  // One (day, level) of the sweep is one Fig. 1 pipeline day: run_pipeline
  // with the level's three Ctype strategies over the same SyntheticDay must
  // give every pair the sweep's return and win-loss ratio bit for bit.
  auto cfg = experiment_golden_config();
  cfg.days = 1;
  cfg.first_day_index = 4;
  const auto result = run_experiment(cfg);

  const std::size_t level = 9;
  const md::Universe universe = md::make_universe(cfg.symbols);
  const md::SyntheticDay day(universe, cfg.generator, cfg.first_day_index);
  engine::PipelineConfig pipe;
  pipe.symbols = cfg.symbols;
  pipe.cleaner = cfg.cleaner;
  pipe.maronna = cfg.maronna;
  for (const auto ctype : stats::all_ctypes) {
    StrategyParams params = cfg.grid.levels()[level];
    params.ctype = ctype;
    pipe.strategies.push_back(params);
  }
  const auto streamed = engine::run_pipeline(pipe, universe, day.quotes());
  ASSERT_FALSE(streamed.degraded);
  const auto& summaries = streamed.master.strategy_summaries;
  ASSERT_EQ(summaries.size(), 3u);

  const auto pairs = stats::all_pairs(cfg.symbols);
  std::size_t trades = 0;
  for (std::size_t c = 0; c < 3; ++c) {
    const auto ctype = stats::all_ctypes[c];
    // A summary's trade returns run pair by pair (trades_by_pair order), and
    // every trade closes with one exit order: count them to split the list.
    std::vector<std::size_t> exits(pairs.size(), 0);
    for (const auto& order : streamed.master.order_log)
      if (order.strategy_id == summaries[c].strategy_id && order.is_entry == 0)
        ++exits[stats::pair_slot(cfg.symbols, order.symbol_i, order.symbol_j)];
    const auto& all = summaries[c].trade_returns;
    ASSERT_EQ(std::accumulate(exits.begin(), exits.end(), std::size_t{0}), all.size())
        << stats::to_string(ctype);
    auto next = all.begin();
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      const std::vector<double> returns(next, next + static_cast<std::ptrdiff_t>(exits[p]));
      next += static_cast<std::ptrdiff_t>(exits[p]);
      const std::vector<double> daily = {cumulative_return(returns)};
      EXPECT_EQ(result.level_monthly_return_plus1[c][level][p],
                cumulative_return(daily) + 1.0)
          << stats::to_string(ctype) << " pair " << p;
      EXPECT_EQ(result.level_win_loss[c][level][p], win_loss(returns).ratio())
          << stats::to_string(ctype) << " pair " << p;
    }
    trades += all.size();
  }
  EXPECT_GT(trades, 0u);
}

TEST(Report, TablesRenderAllRows) {
  const auto result = run_experiment(tiny_config());
  const auto table3 = render_table(result, Measure::monthly_return, true, false);
  EXPECT_NE(table3.find("Mean"), std::string::npos);
  EXPECT_NE(table3.find("Sharpe Ratio"), std::string::npos);
  EXPECT_NE(table3.find("Kurtosis"), std::string::npos);
  EXPECT_NE(table3.find("Maronna"), std::string::npos);
  EXPECT_NE(table3.find("Pearson"), std::string::npos);
  EXPECT_NE(table3.find("Combined"), std::string::npos);

  const auto table4 = render_table(result, Measure::max_daily_drawdown, false, true);
  EXPECT_NE(table4.find('%'), std::string::npos);
  EXPECT_EQ(table4.find("Sharpe"), std::string::npos);
}

TEST(Report, BoxplotsRender) {
  const auto result = run_experiment(tiny_config());
  const auto block = render_boxplots(result, Measure::win_loss);
  EXPECT_NE(block.find("med="), std::string::npos);
  EXPECT_NE(block.find("axis:"), std::string::npos);
  EXPECT_NE(block.find('#'), std::string::npos);
}

TEST(Report, CsvExportRoundTrips) {
  const auto result = run_experiment(tiny_config());
  const std::string path = "/tmp/mm_report_test.csv";
  ASSERT_TRUE(write_experiment_csv(result, path).has_value());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "pair,ctype,monthly_return_plus1,max_daily_drawdown,win_loss");
  std::size_t rows = 0;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) ++rows;
  EXPECT_EQ(rows, result.pair_count * 3);
  std::remove(path.c_str());
}

TEST(Report, PaperReferencesNonEmpty) {
  for (Measure m : {Measure::monthly_return, Measure::max_daily_drawdown,
                    Measure::win_loss}) {
    EXPECT_FALSE(paper_reference(m).empty());
    EXPECT_NE(paper_reference(m).find("paper"), std::string::npos);
  }
}

// A two-pair result whose per-treatment samples are given directly, indexed
// by Ctype (Pearson, Maronna, Combined).
ExperimentResult hand_built(const std::array<std::vector<double>, 3>& returns,
                            const std::array<std::vector<double>, 3>& drawdowns,
                            const std::array<std::vector<double>, 3>& win_loss) {
  ExperimentResult r;
  r.pair_count = returns[0].size();
  r.monthly_return_plus1 = returns;
  r.max_daily_drawdown = drawdowns;
  r.win_loss = win_loss;
  return r;
}

std::vector<bool> holds(const ExperimentResult& r, Measure m) {
  std::vector<bool> out;
  for (const auto& v : shape_verdicts(r, m)) out.push_back(v.holds);
  return out;
}

TEST(Report, VerdictsFollowTheMeasuredOrderings) {
  // Pearson: highest mean; Combined: tightest spread; Maronna: one far
  // outlier for the fattest tail. Drawdowns: Pearson lowest, Maronna highest.
  // Win-loss: Combined highest.
  const std::vector<double> flat = {1.10, 1.10, 1.10, 1.10, 1.10};
  const auto agree = hand_built(
      {std::vector<double>{1.30, 1.10, 1.40, 1.20, 1.25},
       std::vector<double>{1.00, 1.01, 1.02, 1.03, 1.60},
       std::vector<double>{1.10, 1.11, 1.12, 1.11, 1.10}},
      {std::vector<double>{0.01, 0.01, 0.01, 0.01, 0.01},
       std::vector<double>{0.03, 0.03, 0.03, 0.03, 0.03},
       std::vector<double>{0.02, 0.02, 0.02, 0.02, 0.02}},
      {flat, flat, std::vector<double>{1.20, 1.20, 1.20, 1.20, 1.20}});
  EXPECT_EQ(holds(agree, Measure::monthly_return),
            (std::vector<bool>{true, true, true, true}));
  EXPECT_EQ(holds(agree, Measure::max_daily_drawdown), (std::vector<bool>{true, true}));
  EXPECT_EQ(holds(agree, Measure::win_loss), (std::vector<bool>{true}));

  // Swap the treatments around so every claim fails; ties fail too.
  const auto disagree = hand_built(
      {agree.monthly_return_plus1[1], agree.monthly_return_plus1[0],
       agree.monthly_return_plus1[0]},
      {agree.max_daily_drawdown[1], agree.max_daily_drawdown[0],
       agree.max_daily_drawdown[2]},
      {flat, flat, flat});
  EXPECT_EQ(holds(disagree, Measure::monthly_return),
            (std::vector<bool>{false, false, false, false}));
  EXPECT_EQ(holds(disagree, Measure::max_daily_drawdown),
            (std::vector<bool>{false, false}));
  EXPECT_EQ(holds(disagree, Measure::win_loss), (std::vector<bool>{false}));

  const auto text = render_verdicts(agree, Measure::max_daily_drawdown);
  EXPECT_NE(text.find("✔ Pearson has the lowest mean: Maronna 3.0000%, "
                      "Pearson 1.0000%, Combined 2.0000%"),
            std::string::npos)
      << text;
  EXPECT_NE(render_verdicts(disagree, Measure::win_loss)
                .find("✘ Combined has the highest mean"),
            std::string::npos);
}

}  // namespace
}  // namespace mm::core
