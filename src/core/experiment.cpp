#include "core/experiment.hpp"

#include <cstdint>
#include <vector>

#include "common/timer.hpp"
#include "core/metrics.hpp"
#include "core/pair_book.hpp"
#include "marketdata/bars.hpp"
#include "mpmini/environment.hpp"
#include "mpmini/serde.hpp"
#include "stats/corr_engine.hpp"

namespace mm::core {
namespace {

constexpr std::size_t n_ctypes = 3;

// One (ctype, level, pair) cell of one day: the product of (1 + r) over the
// pair's trades in closing order (cumulative_return's arithmetic, minus its
// final −1) and their win/loss counts.
struct DayCell {
  double wealth = 1.0;
  WinLoss wl;
};

// One trading day of the sweep. cells[(ctype * levels + level) * pairs + pair],
// pairs in canonical all_pairs order.
struct DayOutput {
  std::int32_t day = 0;
  std::vector<DayCell> cells;
  std::uint64_t trades = 0;
  std::uint64_t quotes_processed = 0;
  std::uint64_t quotes_dropped = 0;
};

// One strategy of the grid over every pair, and its first cell.
struct SweepBook {
  std::size_t ctype;
  std::size_t first_cell;
  PairBook book;
};

// Generate, clean and sample day `day_index`, then replay every (level,
// Ctype) over every pair the way the pipeline's strategy stage does: for
// each distinct M one Maronna-type CorrelationCalculator streams its
// canonical vectors into one PairBook per strategy with that M (Combined is
// stats::combine on read), and each closed trade lands in its pair's cell.
// Deterministic in (config, day_index).
DayOutput run_day(const ExperimentConfig& config, const md::Universe& universe,
                  int day_index) {
  const auto& levels = config.grid.levels();
  const std::size_t n_levels = levels.size();
  const std::size_t n = config.symbols;
  const auto pairs = stats::all_pairs(n);

  // All grid levels share ∆s (Table I evaluates one ∆s = 30 s); assert so a
  // future grid change cannot silently sample at the wrong granularity.
  const std::int64_t delta_s = levels.front().delta_s;
  for (const auto& level : levels) MM_ASSERT(level.delta_s == delta_s);

  const md::SyntheticDay day(universe, config.generator,
                             config.first_day_index + day_index);
  md::QuoteCleaner cleaner(n, config.cleaner);
  const auto cleaned = cleaner.clean(day.quotes());
  const auto bam =
      md::sample_bam_series(cleaned, n, config.generator.session, delta_s);
  const auto smax = static_cast<std::int64_t>(bam[0].size());
  std::vector<std::vector<double>> returns(n);
  for (std::size_t i = 0; i < n; ++i) returns[i] = md::log_returns(bam[i]);

  DayOutput out;
  out.day = day_index;
  out.quotes_processed = day.quotes().size();
  out.quotes_dropped = day.quotes().size() - cleaned.size();
  out.cells.resize(n_ctypes * n_levels * pairs.size());

  std::vector<double> prices(n), step_returns(n), combined(pairs.size());
  stats::CorrVectors corr;
  const auto collect = [&](SweepBook& b) {
    for (const auto& event : b.book.events()) {
      if (event.trade == PairBook::kOpened) continue;
      const double r = b.book.trades()[event.trade].trade_return;
      MM_ASSERT_MSG(r > -1.0, "a return of -100% or worse breaks compounding");
      DayCell& cell = out.cells[b.first_cell + event.pair];
      cell.wealth *= 1.0 + r;
      cell.wl.add(r);
      ++out.trades;
    }
    b.book.clear_trades();
  };

  for (const std::int64_t m : config.grid.distinct_corr_windows()) {
    stats::CorrEngineConfig corr_config;
    corr_config.type = stats::Ctype::maronna;
    corr_config.window = static_cast<std::size_t>(m);
    corr_config.maronna = config.maronna;
    stats::CorrelationCalculator calc(corr_config, n);

    std::vector<SweepBook> books;
    for (std::size_t l = 0; l < n_levels; ++l) {
      if (levels[l].corr_window != m) continue;
      for (std::size_t c = 0; c < n_ctypes; ++c) {
        StrategyParams params = levels[l];
        params.ctype = stats::all_ctypes[c];
        books.push_back({c, (c * n_levels + l) * pairs.size(),
                         PairBook(params, smax, n, pairs)});
      }
    }

    for (std::int64_t s = 0; s < smax; ++s) {
      const auto si = static_cast<std::size_t>(s);
      for (std::size_t i = 0; i < n; ++i) prices[i] = bam[i][si];
      if (s > 0) {
        for (std::size_t i = 0; i < n; ++i) step_returns[i] = returns[i][si - 1];
        calc.push(step_returns);
      }
      // The window holds M returns from interval M on: first_valid == M.
      const bool valid = calc.ready();
      if (valid) {
        calc.vectors_into(corr);
        for (std::size_t k = 0; k < pairs.size(); ++k)
          combined[k] = stats::combine(corr.pearson[k], corr.maronna[k]);
      }
      const double* by_ctype[n_ctypes] = {corr.pearson.data(), corr.maronna.data(),
                                          combined.data()};
      for (auto& b : books) {
        b.book.step(s, prices.data(), valid ? by_ctype[b.ctype] : nullptr, valid);
        collect(b);
      }
    }
    for (auto& b : books) {
      b.book.finish();
      collect(b);
    }
  }
  return out;
}

std::vector<std::uint8_t> pack_days(const std::vector<DayOutput>& days) {
  mpi::Packer packer;
  packer.put<std::uint64_t>(days.size());
  for (const auto& d : days) {
    packer.put(d.day);
    packer.put(d.trades);
    packer.put(d.quotes_processed);
    packer.put(d.quotes_dropped);
    packer.put_vector(d.cells);
  }
  return packer.take();
}

void unpack_days(const std::vector<std::uint8_t>& bytes, std::vector<DayOutput>& by_day) {
  mpi::Unpacker unpacker(bytes);
  const auto count = unpacker.get<std::uint64_t>();
  for (std::uint64_t k = 0; k < count; ++k) {
    DayOutput d;
    d.day = unpacker.get<std::int32_t>();
    d.trades = unpacker.get<std::uint64_t>();
    d.quotes_processed = unpacker.get<std::uint64_t>();
    d.quotes_dropped = unpacker.get<std::uint64_t>();
    d.cells = unpacker.get_vector<DayCell>();
    by_day.at(static_cast<std::size_t>(d.day)) = std::move(d);
  }
}

// Fold the days, in day order, into the paper's measures: per (ctype, level,
// pair) the month's daily returns and win/loss counts, then the average over
// levels.
ExperimentResult merge_days(const ExperimentConfig& config,
                            const std::vector<DayOutput>& days) {
  const md::Universe universe = md::make_universe(config.symbols);
  const auto pairs = stats::all_pairs(config.symbols);
  const std::size_t n_pairs = pairs.size();
  const std::size_t n_levels = config.grid.levels().size();

  ExperimentResult result;
  result.symbols = config.symbols;
  result.pair_count = n_pairs;
  result.days = config.days;
  result.pair_names.reserve(n_pairs);
  for (const auto& pr : pairs)
    result.pair_names.push_back(universe.table.name(pr.i) + "/" +
                                universe.table.name(pr.j));

  std::vector<std::vector<double>> daily_returns(n_ctypes * n_levels * n_pairs);
  std::vector<WinLoss> wl(daily_returns.size());
  for (const auto& d : days) {
    MM_ASSERT(d.cells.size() == daily_returns.size());
    result.total_trades += d.trades;
    result.quotes_processed += d.quotes_processed;
    result.quotes_dropped += d.quotes_dropped;
    for (std::size_t q = 0; q < d.cells.size(); ++q) {
      daily_returns[q].push_back(d.cells[q].wealth - 1.0);
      wl[q].merge(d.cells[q].wl);
    }
  }

  for (std::size_t c = 0; c < n_ctypes; ++c) {
    result.monthly_return_plus1[c].assign(n_pairs, 0.0);
    result.max_daily_drawdown[c].assign(n_pairs, 0.0);
    result.win_loss[c].assign(n_pairs, 0.0);
    if (config.keep_level_detail) {
      result.level_monthly_return_plus1[c].assign(n_levels, std::vector<double>(n_pairs));
      result.level_max_daily_drawdown[c].assign(n_levels, std::vector<double>(n_pairs));
      result.level_win_loss[c].assign(n_levels, std::vector<double>(n_pairs));
    }
    for (std::size_t p = 0; p < n_pairs; ++p) {
      double sum_ret = 0.0, sum_mdd = 0.0, sum_wl = 0.0;
      for (std::size_t l = 0; l < n_levels; ++l) {
        const std::size_t q = (c * n_levels + l) * n_pairs + p;
        const double ret = cumulative_return(daily_returns[q]) + 1.0;
        const double mdd = max_drawdown(daily_returns[q]);
        const double ratio = wl[q].ratio();
        if (config.keep_level_detail) {
          result.level_monthly_return_plus1[c][l][p] = ret;
          result.level_max_daily_drawdown[c][l][p] = mdd;
          result.level_win_loss[c][l][p] = ratio;
        }
        sum_ret += ret;
        sum_mdd += mdd;
        sum_wl += ratio;
      }
      const auto nl = static_cast<double>(n_levels);
      result.monthly_return_plus1[c][p] = sum_ret / nl;
      result.max_daily_drawdown[c][p] = sum_mdd / nl;
      result.win_loss[c][p] = sum_wl / nl;
    }
  }
  return result;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  Stopwatch watch;
  const md::Universe universe = md::make_universe(config.symbols);
  std::vector<DayOutput> days;
  for (int d = 0; d < config.days; ++d) days.push_back(run_day(config, universe, d));
  auto result = merge_days(config, days);
  result.wall_seconds = watch.elapsed_seconds();
  return result;
}

ExperimentResult run_experiment_parallel(const ExperimentConfig& config) {
  MM_ASSERT_MSG(config.ranks >= 1, "need at least one rank");
  Stopwatch watch;

  ExperimentResult result;
  mpi::Environment::run(config.ranks, [&](mpi::Comm& comm) {
    // Static shard: day d -> rank d % size. A rank past the last day sends
    // an empty list.
    const md::Universe universe = md::make_universe(config.symbols);
    std::vector<DayOutput> mine;
    for (int d = comm.rank(); d < config.days; d += comm.size())
      mine.push_back(run_day(config, universe, d));

    const auto gathered = comm.gather_bytes(pack_days(mine), 0);
    if (comm.rank() == 0) {
      std::vector<DayOutput> days(static_cast<std::size_t>(config.days));
      for (const auto& bytes : gathered) unpack_days(bytes, days);
      result = merge_days(config, days);
    }
  });
  result.wall_seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace mm::core
