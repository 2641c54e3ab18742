// Microbenchmarks for the backtesting path: strategy stepping (one pair, and
// the strategy plane's PairBook over every pair), per-pair correlation-series
// recomputation (Approach 2's unit cost) and the shared market-wide
// computation (Approach 3's unit cost).
#include <benchmark/benchmark.h>

#include <chrono>
#include <optional>

#include "core/backtester.hpp"
#include "core/experiment.hpp"
#include "core/pair_book.hpp"
#include "marketdata/bars.hpp"
#include "marketdata/cleaner.hpp"
#include "marketdata/generator.hpp"
#include "stats/corr_engine.hpp"

namespace {

using namespace mm;

struct DayFixture {
  std::vector<std::vector<double>> bam;

  explicit DayFixture(std::size_t symbols) {
    const auto universe = md::make_universe(symbols);
    md::GeneratorConfig gen;
    gen.quote_rate = 0.2;
    const md::SyntheticDay day(universe, gen, 0);
    md::QuoteCleaner cleaner(symbols, md::CleanerConfig{});
    bam = md::sample_bam_series(cleaner.clean(day.quotes()), symbols, gen.session, 30);
  }
};

void BM_StrategyDayRun(benchmark::State& state) {
  static const DayFixture fixture(4);
  core::StrategyParams params = core::ParamGrid::base();
  params.divergence = 0.0005;
  const auto series = core::compute_pair_corr_series(
      fixture.bam[0], fixture.bam[1], stats::Ctype::pearson, params.corr_window);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::run_pair_day(params, fixture.bam[0], fixture.bam[1], series));
  }
  // 780 intervals per run.
  state.SetItemsProcessed(state.iterations() * 780);
}
BENCHMARK(BM_StrategyDayRun);

// One n = 250 day as the strategy stage sees it (obs_demo's generator
// settings): each interval's prices and, once the M = 100 window is full,
// its canonical Pearson vector.
struct BookDayFixture {
  static constexpr std::size_t kSymbols = 250;
  static constexpr std::int64_t kCorrWindow = 100;
  std::vector<std::vector<double>> prices;   // [interval][symbol]
  std::vector<std::vector<double>> pearson;  // [interval][pair]; empty if invalid

  BookDayFixture() {
    const auto universe = md::make_universe(kSymbols);
    md::GeneratorConfig gen;
    gen.quote_rate = 0.3;
    const md::SyntheticDay day(universe, gen, 0);
    md::QuoteCleaner cleaner(kSymbols, md::CleanerConfig{});
    const auto bam =
        md::sample_bam_series(cleaner.clean(day.quotes()), kSymbols, gen.session, 30);
    std::vector<std::vector<double>> returns(kSymbols);
    for (std::size_t i = 0; i < kSymbols; ++i) returns[i] = md::log_returns(bam[i]);

    stats::CorrEngineConfig config;
    config.type = stats::Ctype::pearson;
    config.window = static_cast<std::size_t>(kCorrWindow);
    stats::CorrelationCalculator calc(config, kSymbols);
    stats::CorrVectors vectors;
    std::vector<double> step_returns(kSymbols);
    const std::size_t smax = bam[0].size();
    prices.assign(smax, std::vector<double>(kSymbols));
    pearson.resize(smax);
    for (std::size_t s = 0; s < smax; ++s) {
      for (std::size_t i = 0; i < kSymbols; ++i) prices[s][i] = bam[i][s];
      if (s == 0) continue;
      for (std::size_t i = 0; i < kSymbols; ++i) step_returns[i] = returns[i][s - 1];
      calc.push(step_returns);
      if (calc.ready() && static_cast<std::int64_t>(s) >= kCorrWindow) {
        calc.vectors_into(vectors);
        pearson[s] = vectors.pearson;
      }
    }
  }
};

// The strategy plane's unit cost: obs_demo's two M = 100 Pearson strategies,
// one PairBook each over every pair of n = 250, stepped through one day.
// Inputs are precomputed and the books built off the clock; reports wall
// nanoseconds per pair-step.
void BM_PairBookStep(benchmark::State& state) {
  static const BookDayFixture fixture;
  const std::size_t n = BookDayFixture::kSymbols;
  const auto pairs = stats::all_pairs(n);
  std::vector<core::StrategyParams> params;
  for (const auto& p : core::ParamGrid().all()) {
    if (p.corr_window != BookDayFixture::kCorrWindow) continue;
    params.push_back(p);
    if (params.size() == 2) break;
  }
  const auto smax = static_cast<std::int64_t>(fixture.prices.size());
  std::vector<std::optional<core::PairBook>> books(params.size());
  std::size_t events = 0;
  double day_ns = 0.0;  // wall time of the timed region, summed over iterations
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t b = 0; b < params.size(); ++b) books[b].emplace(params[b], smax, n, pairs);
    state.ResumeTiming();
    const auto start = std::chrono::steady_clock::now();
    for (std::int64_t s = 0; s < smax; ++s) {
      const auto& corr = fixture.pearson[static_cast<std::size_t>(s)];
      for (auto& book : books) {
        book->step(s, fixture.prices[static_cast<std::size_t>(s)].data(), corr.data(),
                   !corr.empty());
        events += book->events().size();
        book->clear_trades();
      }
    }
    for (auto& book : books) {
      book->finish();
      events += book->events().size();
    }
    day_ns += std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() -
                                                       start)
                  .count();
    benchmark::DoNotOptimize(events);
  }
  const double pair_steps = static_cast<double>(pairs.size() * params.size()) *
                            static_cast<double>(smax) *
                            static_cast<double>(state.iterations());
  state.counters["ns_per_pair_step"] = day_ns / pair_steps;
  state.counters["events"] = benchmark::Counter(static_cast<double>(events),
                                                benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_PairBookStep)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_PairSeriesPearson(benchmark::State& state) {
  static const DayFixture fixture(4);
  const auto m = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_pair_corr_series(
        fixture.bam[0], fixture.bam[1], stats::Ctype::pearson, m));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PairSeriesPearson)->Arg(50)->Arg(100)->Arg(200);

void BM_PairSeriesMaronna(benchmark::State& state) {
  static const DayFixture fixture(4);
  const auto m = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_pair_corr_series(
        fixture.bam[0], fixture.bam[1], stats::Ctype::maronna, m));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PairSeriesMaronna)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_MarketSeriesShared(benchmark::State& state) {
  // Approach 3's amortized unit: ALL pairs in one pass (Pearson only, the
  // common case for the fast path).
  const auto symbols = static_cast<std::size_t>(state.range(0));
  const DayFixture fixture(symbols);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::compute_market_corr_series(fixture.bam, 100, /*need_maronna=*/false));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(symbols * (symbols - 1) / 2));
}
BENCHMARK(BM_MarketSeriesShared)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_TinyExperimentEndToEnd(benchmark::State& state) {
  core::ExperimentConfig cfg;
  cfg.symbols = 4;
  cfg.days = 1;
  cfg.generator.quote_rate = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_experiment(cfg));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TinyExperimentEndToEnd)->Unit(benchmark::kMillisecond);

}  // namespace
