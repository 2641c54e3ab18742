#include "core/pair_book.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "stats/rolling.hpp"

namespace mm::core {

PairBook::PairBook(const StrategyParams& params, std::int64_t smax, std::size_t symbols,
                   std::vector<stats::PairIndex> pairs)
    : params_(params),
      smax_(smax),
      symbols_(symbols),
      window_(static_cast<std::size_t>(params.avg_window)),
      spread_window_(static_cast<std::size_t>(params.spread_window)),
      rows_(std::max(window_, spread_window_) + 1),
      pairs_(std::move(pairs)) {
  MM_ASSERT_MSG(params.validate().has_value(), "invalid StrategyParams");
  MM_ASSERT_MSG(smax > 0, "smax must be positive");
  MM_ASSERT_MSG(pairs_.size() < kOpened, "too many pairs for one book");
  for (const auto& pr : pairs_)
    MM_ASSERT_MSG(pr.i < symbols && pr.j < symbols, "pair not in universe");
  const std::size_t p = pairs_.size();
  prices_.assign(rows_ * symbols_, 0.0);
  corr_hist_.assign(window_ * p, 0.0);
  corr_sum_.assign(p, 0.0);
  spread_sum_.assign(p, 0.0);
  streak_.assign(p, 0);
  open_.assign(p, 0);
  positions_.assign(p, PairPosition{});
  // A pair opens or closes at most once per step.
  events_.reserve(p);
}

double PairBook::spread_at(std::size_t step, std::size_t pair) const {
  const double* row = prices_.data() + (step % rows_) * symbols_;
  return row[pairs_[pair].i] - row[pairs_[pair].j];
}

// RollingMean's rebuild over the spread window ending at step `newest`:
// summed from the oldest value to the newest.
double PairBook::spread_window_sum(std::size_t pair, std::size_t newest) const {
  const std::size_t size = std::min(newest + 1, spread_window_);
  double sum = 0.0;
  for (std::size_t q = newest + 1 - size; q <= newest; ++q) sum += spread_at(q, pair);
  return sum;
}

// RollingMean's rebuild for every pair's correlation window, oldest row first.
void PairBook::rebuild_corr_sums() {
  const std::size_t p = pairs_.size();
  const std::size_t size = std::min(corr_pushes_, window_);
  std::fill(corr_sum_.begin(), corr_sum_.end(), 0.0);
  for (std::size_t q = corr_pushes_ - size; q < corr_pushes_; ++q) {
    const double* row = corr_hist_.data() + (q % window_) * p;
    for (std::size_t k = 0; k < p; ++k) corr_sum_[k] += row[k];
  }
}

void PairBook::step(std::int64_t s, const double* prices, const double* corr,
                    bool corr_valid) {
  MM_ASSERT_MSG(s > last_s_, "intervals must be strictly increasing");
  MM_ASSERT(!corr_valid || corr != nullptr || pairs_.empty());
  events_.clear();
  last_s_ = s;

  const std::size_t t = steps_++;
  double* now = price_row(t);
  for (std::size_t i = 0; i < symbols_; ++i) {
    MM_ASSERT_MSG(prices[i] > 0.0, "non-positive price");
    now[i] = prices[i];
  }
  // The RT spread window drops step t-RT once full; the W-interval return
  // starts at step t-W; entries need both windows warm.
  const double* spread_out =
      t >= spread_window_ ? price_row(t - spread_window_) : nullptr;
  const double* first = t >= window_ ? price_row(t - window_) : nullptr;
  const bool warm = first != nullptr && t + 1 >= spread_window_;
  const bool spread_rebuild = steps_ % stats::RollingMean::kRebuildPushes == 0;
  const double spread_n = static_cast<double>(spread_window_);

  // C̄ at s is the mean of the W correlations before s: ready once W pushed.
  const bool avg_ready = corr_valid && corr_pushes_ >= window_;
  const double corr_n = static_cast<double>(window_);
  double* corr_row =
      corr_valid ? corr_hist_.data() + (corr_pushes_ % window_) * pairs_.size() : nullptr;

  for (std::size_t k = 0; k < pairs_.size(); ++k) {
    const std::uint32_t i = pairs_[k].i;
    const std::uint32_t j = pairs_[k].j;
    const double pi = now[i];
    const double pj = now[j];

    double spread_sum = spread_sum_[k];
    if (spread_out != nullptr) spread_sum -= spread_out[i] - spread_out[j];
    spread_sum += pi - pj;
    if (spread_rebuild) spread_sum = spread_window_sum(k, t);
    spread_sum_[k] = spread_sum;

    bool fresh = false;
    double c = 0.0;
    double avg_corr = 0.0;
    if (corr_valid) {
      c = corr[k];
      double corr_sum = corr_sum_[k];
      if (avg_ready) {
        avg_corr = corr_sum / corr_n;
        streak_[k] = next_divergence_streak(params_, c, avg_corr, streak_[k]);
        fresh = fresh_divergence(params_, streak_[k]);
        corr_sum -= corr_row[k];
      }
      corr_row[k] = c;
      corr_sum_[k] = corr_sum + c;
    } else {
      streak_[k] = 0;
    }

    if (open_[k] != 0) {
      if (const auto reason =
              exit_signal(params_, positions_[k], s, pi, pj, c, avg_ready, avg_corr))
        close(k, s, pi, pj, *reason);
      continue;
    }
    if (!warm || !entry_signal(params_, s, smax_, fresh, avg_corr)) continue;

    // The RT-window spread extremes, rebuilt from the price rows.
    double low = pi - pj;
    double high = low;
    for (std::size_t q = t + 1 - spread_window_; q < t; ++q) {
      const double spread = spread_at(q, k);
      low = std::min(low, spread);
      high = std::max(high, spread);
    }
    positions_[k] = open_position(params_, s, pi, pj, first[i], first[j], low, high,
                                  spread_sum / spread_n);
    open_[k] = 1;
    events_.push_back({static_cast<std::uint32_t>(k), kOpened});
  }

  if (corr_valid && ++corr_pushes_ % stats::RollingMean::kRebuildPushes == 0)
    rebuild_corr_sums();
}

void PairBook::close(std::size_t pair, std::int64_t s, double price_i, double price_j,
                     ExitReason reason) {
  events_.push_back({static_cast<std::uint32_t>(pair),
                     static_cast<std::uint32_t>(trades_.size())});
  trades_.push_back(close_trade(params_, positions_[pair], s, price_i, price_j, reason));
  trade_pair_.push_back(static_cast<std::uint32_t>(pair));
  open_[pair] = 0;
  streak_[pair] = streak_after_close(params_);
}

void PairBook::finish() {
  events_.clear();
  if (steps_ == 0) return;
  const double* last = price_row(steps_ - 1);
  for (std::size_t k = 0; k < pairs_.size(); ++k)
    if (open_[k] != 0)
      close(k, last_s_, last[pairs_[k].i], last[pairs_[k].j], ExitReason::end_of_day);
}

double PairBook::average_correlation(std::size_t pair) const {
  MM_ASSERT(corr_pushes_ >= window_);
  return corr_sum_[pair] / static_cast<double>(window_);
}

double PairBook::spread_average(std::size_t pair) const {
  MM_ASSERT(steps_ > 0);
  return spread_sum_[pair] / static_cast<double>(std::min(steps_, spread_window_));
}

std::vector<Trade> PairBook::trades_by_pair() const {
  // Counting sort by pair; stable, so each pair keeps its closing order.
  std::vector<std::size_t> next(pairs_.size() + 1, 0);
  for (const std::uint32_t k : trade_pair_) ++next[k + 1];
  for (std::size_t k = 0; k < pairs_.size(); ++k) next[k + 1] += next[k];
  std::vector<Trade> out(trades_.size());
  for (std::size_t q = 0; q < trades_.size(); ++q)
    out[next[trade_pair_[q]]++] = trades_[q];
  return out;
}

std::size_t PairBook::state_bytes() const {
  const auto bytes = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  return bytes(pairs_) + bytes(prices_) + bytes(corr_hist_) + bytes(corr_sum_) +
         bytes(spread_sum_) + bytes(streak_) + bytes(open_) + bytes(positions_) +
         bytes(events_);
}

}  // namespace mm::core
