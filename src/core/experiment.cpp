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

  DayOutput out;
  out.day = day_index;
  std::vector<std::vector<double>> bam;
  {
    // The raw and cleaned quotes only feed the BAM series: release them
    // before the sweep, where the day spends its time, so ranks sweeping
    // side by side do not each hold a day of quotes.
    const md::SyntheticDay day(universe, config.generator,
                               config.first_day_index + day_index);
    md::QuoteCleaner cleaner(n, config.cleaner);
    const auto cleaned = cleaner.clean(day.quotes());
    bam = md::sample_bam_series(cleaned, n, config.generator.session, delta_s);
    out.quotes_processed = day.quotes().size();
    out.quotes_dropped = day.quotes().size() - cleaned.size();
  }
  const auto smax = static_cast<std::int64_t>(bam[0].size());
  std::vector<std::vector<double>> returns(n);
  for (std::size_t i = 0; i < n; ++i) returns[i] = md::log_returns(bam[i]);

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

void pack_day(mpi::Packer& packer, const DayOutput& d) {
  packer.put(d.day);
  packer.put(d.trades);
  packer.put(d.quotes_processed);
  packer.put(d.quotes_dropped);
  packer.put_vector(d.cells);
}

// The month as it accumulates, one day at a time and in any day order: per
// (ctype, level, pair) cell its daily returns, flat [cell][day], and its
// win/loss counts. finish() turns it into the paper's measures, averaged
// over levels.
class MonthFold {
 public:
  explicit MonthFold(const ExperimentConfig& config)
      : config_(config),
        days_(static_cast<std::size_t>(config.days)),
        wl_(n_ctypes * config.grid.levels().size() *
            stats::all_pairs(config.symbols).size()),
        daily_returns_(wl_.size() * days_, 0.0) {}

  void add(const DayOutput& d) {
    MM_ASSERT(d.cells.size() == wl_.size());
    const auto day = static_cast<std::size_t>(d.day);
    MM_ASSERT(day < days_);
    trades_ += d.trades;
    quotes_processed_ += d.quotes_processed;
    quotes_dropped_ += d.quotes_dropped;
    for (std::size_t q = 0; q < d.cells.size(); ++q) {
      daily_returns_[q * days_ + day] = d.cells[q].wealth - 1.0;
      wl_[q].merge(d.cells[q].wl);
    }
  }

  // Every pack_day record in `bytes`, folded through one reused DayOutput.
  void add_packed(const std::vector<std::uint8_t>& bytes) {
    mpi::Unpacker unpacker(bytes);
    while (unpacker.remaining() > 0) {
      scratch_.day = unpacker.get<std::int32_t>();
      scratch_.trades = unpacker.get<std::uint64_t>();
      scratch_.quotes_processed = unpacker.get<std::uint64_t>();
      scratch_.quotes_dropped = unpacker.get<std::uint64_t>();
      unpacker.get_vector_into(scratch_.cells);
      add(scratch_);
    }
  }

  ExperimentResult finish() const {
    const md::Universe universe = md::make_universe(config_.symbols);
    const auto pairs = stats::all_pairs(config_.symbols);
    const std::size_t n_pairs = pairs.size();
    const std::size_t n_levels = config_.grid.levels().size();

    ExperimentResult result;
    result.symbols = config_.symbols;
    result.pair_count = n_pairs;
    result.days = config_.days;
    result.total_trades = trades_;
    result.quotes_processed = quotes_processed_;
    result.quotes_dropped = quotes_dropped_;
    result.pair_names.reserve(n_pairs);
    for (const auto& pr : pairs)
      result.pair_names.push_back(universe.table.name(pr.i) + "/" +
                                  universe.table.name(pr.j));

    std::vector<double> series(days_);
    for (std::size_t c = 0; c < n_ctypes; ++c) {
      result.monthly_return_plus1[c].assign(n_pairs, 0.0);
      result.max_daily_drawdown[c].assign(n_pairs, 0.0);
      result.win_loss[c].assign(n_pairs, 0.0);
      if (config_.keep_level_detail) {
        result.level_monthly_return_plus1[c].assign(n_levels, std::vector<double>(n_pairs));
        result.level_max_daily_drawdown[c].assign(n_levels, std::vector<double>(n_pairs));
        result.level_win_loss[c].assign(n_levels, std::vector<double>(n_pairs));
      }
      for (std::size_t p = 0; p < n_pairs; ++p) {
        double sum_ret = 0.0, sum_mdd = 0.0, sum_wl = 0.0;
        for (std::size_t l = 0; l < n_levels; ++l) {
          const std::size_t q = (c * n_levels + l) * n_pairs + p;
          const auto first = daily_returns_.begin() +
                             static_cast<std::ptrdiff_t>(q * days_);
          series.assign(first, first + static_cast<std::ptrdiff_t>(days_));
          const double ret = cumulative_return(series) + 1.0;
          const double mdd = max_drawdown(series);
          const double ratio = wl_[q].ratio();
          if (config_.keep_level_detail) {
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

 private:
  const ExperimentConfig& config_;
  std::size_t days_;
  std::vector<WinLoss> wl_;             // [cell]
  std::vector<double> daily_returns_;   // [cell][day]
  std::uint64_t trades_ = 0;
  std::uint64_t quotes_processed_ = 0;
  std::uint64_t quotes_dropped_ = 0;
  DayOutput scratch_;
};

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  Stopwatch watch;
  const md::Universe universe = md::make_universe(config.symbols);
  MonthFold month(config);
  for (int d = 0; d < config.days; ++d) month.add(run_day(config, universe, d));
  auto result = month.finish();
  result.wall_seconds = watch.elapsed_seconds();
  return result;
}

ExperimentResult run_experiment_parallel(const ExperimentConfig& config) {
  MM_ASSERT_MSG(config.ranks >= 1, "need at least one rank");
  Stopwatch watch;

  ExperimentResult result;
  mpi::Environment::run(config.ranks, [&](mpi::Comm& comm) {
    // Static shard: day d -> rank d % size. Each day is packed as soon as it
    // is done; a rank past the last day sends an empty buffer.
    const md::Universe universe = md::make_universe(config.symbols);
    mpi::Packer packer;
    for (int d = comm.rank(); d < config.days; d += comm.size())
      pack_day(packer, run_day(config, universe, d));

    auto gathered = comm.gather_bytes(packer.take(), 0);
    if (comm.rank() == 0) {
      MonthFold month(config);
      for (auto& bytes : gathered) {
        month.add_packed(bytes);
        std::vector<std::uint8_t>().swap(bytes);  // release as we go
      }
      result = month.finish();
    }
  });
  result.wall_seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace mm::core
