#include "core/pair_book.hpp"

#include <algorithm>
#include <limits>
#include <type_traits>
#include <utility>

#include "stats/rolling.hpp"

namespace mm::core {
namespace {

// The step-wide inputs of the dense pass.
struct DenseStep {
  StrategyParams params;
  std::int64_t s;
  std::int64_t smax;
  bool corr_valid;
  bool avg_ready;   // C̄ is defined: corr_valid and W correlations pushed
  bool warm;        // the W-return and RT windows are full
  bool check_open;  // stop-loss or correlation reversion: check every open pair
};

constexpr std::uint8_t kOpen = 1;
constexpr std::uint8_t kExitAbove = 2;

// The dense pass over one run of `len` pairs (leg i's price `pi`, the j legs'
// prices `pj[x]`): RollingMean's running sums for the spread and C̄, the
// correlation ring row and the divergence streak. A pair acts when it is
// flat and passes the entry gate, or is open and crossed its retracement
// level, reached HP, or may hit an optional exit; the pass appends the run
// offset of each acting pair to `acted` and its C̄ before this step's push to
// `acted_avg` (written for every pair, kept by advancing the count by the
// action bit), and returns the count.
//
// Every per-pair pointer starts at the run's first pair; `out_i`/`out_j` are
// the prices leaving the RT spread window (`out_j` null while it fills);
// `corr` and `corr_row` are null when the correlations are invalid. The
// pointers are restrict-qualified and the step-wide values copied in, so no
// store can alias a later load, and the rule functions compile without
// branches, so the loop's only branches are step-wide.
std::size_t dense_pass(const DenseStep& step_in, std::size_t len, double pi,
                       const double* __restrict pj, double out_i,
                       const double* __restrict out_j, const double* __restrict corr,
                       double* __restrict corr_row, double* __restrict corr_sum,
                       double* __restrict spread_sum, std::int32_t* __restrict streak,
                       const std::uint8_t* __restrict flags,
                       const double* __restrict retrace,
                       const std::int64_t* __restrict entry_s,
                       std::uint32_t* __restrict acted, double* __restrict acted_avg) {
  const DenseStep st = step_in;
  const StrategyParams& params = st.params;
  const double corr_n = static_cast<double>(params.avg_window);
  std::size_t count = 0;
  for (std::size_t x = 0; x < len; ++x) {
    const double spread = pi - pj[x];
    double sum = spread_sum[x];
    if (out_j != nullptr) sum -= out_i - out_j[x];
    spread_sum[x] = sum + spread;

    std::int32_t streak_x = 0;
    bool fresh = false;
    double avg_corr = 0.0;
    if (st.corr_valid) {
      const double c = corr[x];
      double csum = corr_sum[x];
      streak_x = streak[x];
      if (st.avg_ready) {
        avg_corr = csum / corr_n;
        streak_x = static_cast<std::int32_t>(
            next_divergence_streak(params, c, avg_corr, streak_x));
        fresh = fresh_divergence(params, streak_x);
        csum -= corr_row[x];
      }
      corr_row[x] = c;
      corr_sum[x] = csum + c;
    }
    streak[x] = streak_x;

    const std::uint8_t f = flags[x];
    const bool open = (f & kOpen) != 0;
    const bool exit_hit = st.check_open |
                          retracement_cross((f & kExitAbove) != 0, retrace[x], spread) |
                          holding_expired(params, entry_s[x], st.s);
    const bool entry_hit = st.warm & entry_signal(params, st.s, st.smax, fresh, avg_corr);
    acted[count] = static_cast<std::uint32_t>(x);
    acted_avg[count] = avg_corr;
    count += static_cast<std::size_t>((open & exit_hit) | (!open & entry_hit));
  }
  return count;
}

}  // namespace

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
  // The streak is at most the step count or streak_after_close() = Y + 1.
  MM_ASSERT_MSG(params.divergence_window < std::numeric_limits<std::int32_t>::max(),
                "Y too large for the streak");
  std::size_t longest = 0;
  for (std::size_t k = 0; k < pairs_.size(); ++k) {
    const auto& pr = pairs_[k];
    MM_ASSERT_MSG(pr.i < symbols && pr.j < symbols, "pair not in universe");
    if (!runs_.empty() && runs_.back().i == pr.i &&
        runs_.back().j0 + runs_.back().len == pr.j) {
      ++runs_.back().len;
    } else {
      runs_.push_back({static_cast<std::uint32_t>(k), pr.i, pr.j, 1});
    }
    longest = std::max<std::size_t>(longest, runs_.back().len);
  }
  runs_.shrink_to_fit();
  const std::size_t p = pairs_.size();
  prices_.assign(rows_ * symbols_, 0.0);
  corr_hist_.assign(window_ * p, 0.0);
  corr_sum_.assign(p, 0.0);
  spread_sum_.assign(p, 0.0);
  streak_.assign(p, 0);
  flags_.assign(p, 0);
  retrace_.assign(p, 0.0);
  entry_s_.assign(p, 0);
  fills_.assign(p, Fills{});
  acted_.assign(longest, 0);
  acted_avg_.assign(longest, 0.0);
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
  // The streak grows by at most one per step.
  MM_ASSERT_MSG(steps_ < static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()),
                "too many steps for the streak");
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
  double* corr_row =
      corr_valid ? corr_hist_.data() + (corr_pushes_ % window_) * pairs_.size() : nullptr;
  DenseStep dense;
  dense.params = params_;
  dense.s = s;
  dense.smax = smax_;
  dense.corr_valid = corr_valid;
  dense.avg_ready = avg_ready;
  dense.warm = warm;
  // Without the optional exits, an open pair can only close on a retracement
  // cross or at HP; with either of them every open pair is checked.
  dense.check_open = params_.stop_loss > 0.0 || params_.correlation_reversion_exit;

  for (const Run& run : runs_) {
    const std::size_t k0 = run.first;
    const std::size_t len = run.len;
    const double pi = now[run.i];
    const double* pj = now + run.j0;
    const double out_i = spread_out != nullptr ? spread_out[run.i] : 0.0;
    const double* out_j = spread_out != nullptr ? spread_out + run.j0 : nullptr;

    const std::size_t acted =
        dense_pass(dense, len, pi, pj, out_i, out_j, corr_valid ? corr + k0 : nullptr,
                   corr_valid ? corr_row + k0 : nullptr, corr_sum_.data() + k0,
                   spread_sum_.data() + k0, streak_.data() + k0, flags_.data() + k0,
                   retrace_.data() + k0, entry_s_.data() + k0, acted_.data(),
                   acted_avg_.data());
    if (spread_rebuild)
      for (std::size_t k = k0; k < k0 + len; ++k) spread_sum_[k] = spread_window_sum(k, t);

    // Sparse pass: the acting pairs, in pair order.
    for (std::size_t a = 0; a < acted; ++a) {
      const std::size_t x = acted_[a];
      const std::size_t k = k0 + x;
      const std::uint32_t j = run.j0 + static_cast<std::uint32_t>(x);
      const double pj_x = pj[x];
      if ((flags_[k] & kOpen) != 0) {
        const double c = corr_valid ? corr[k] : 0.0;
        if (const auto reason = exit_signal(params_, position(k), s, pi, pj_x, c,
                                            avg_ready, acted_avg_[a]))
          close(k, s, pi, pj_x, *reason);
        continue;
      }
      // The RT-window spread extremes, rebuilt from the price rows (the
      // oldest row of the window first, stepping the ring index).
      double low = pi - pj_x;
      double high = low;
      std::size_t row = (t + 1 - spread_window_) % rows_;
      for (std::size_t q = 1; q < spread_window_; ++q) {
        const double* prices_q = prices_.data() + row * symbols_;
        const double spread = prices_q[run.i] - prices_q[j];
        low = std::min(low, spread);
        high = std::max(high, spread);
        if (++row == rows_) row = 0;
      }
      open(k, open_position(params_, s, pi, pj_x, first[run.i], first[j], low, high,
                            spread_sum_[k] / spread_n));
    }
  }

  if (corr_valid && ++corr_pushes_ % stats::RollingMean::kRebuildPushes == 0)
    rebuild_corr_sums();
}

bool PairBook::in_position(std::size_t pair) const { return (flags_[pair] & kOpen) != 0; }

PairPosition PairBook::position(std::size_t pair) const {
  const Fills& f = fills_[pair];
  PairPosition pos;
  pos.entry_s = entry_s_[pair];
  pos.entry_price_i = f.entry_price_i;
  pos.entry_price_j = f.entry_price_j;
  pos.shares_i = f.shares_i;
  pos.shares_j = f.shares_j;
  pos.gross_basis = f.gross_basis;
  pos.retrace_level = retrace_[pair];
  pos.exit_when_spread_above = (flags_[pair] & kExitAbove) != 0;
  return pos;
}

void PairBook::open(std::size_t pair, const PairPosition& pos) {
  fills_[pair] = {pos.entry_price_i, pos.entry_price_j, pos.shares_i, pos.shares_j,
                  pos.gross_basis};
  retrace_[pair] = pos.retrace_level;
  entry_s_[pair] = pos.entry_s;
  flags_[pair] = static_cast<std::uint8_t>(kOpen | (pos.exit_when_spread_above ? kExitAbove : 0));
  events_.push_back({static_cast<std::uint32_t>(pair), kOpened});
}

void PairBook::close(std::size_t pair, std::int64_t s, double price_i, double price_j,
                     ExitReason reason) {
  events_.push_back({static_cast<std::uint32_t>(pair),
                     static_cast<std::uint32_t>(trades_.size())});
  trades_.push_back(close_trade(params_, position(pair), s, price_i, price_j, reason));
  trade_pair_.push_back(static_cast<std::uint32_t>(pair));
  flags_[pair] &= static_cast<std::uint8_t>(~kOpen);
  streak_[pair] = static_cast<std::int32_t>(streak_after_close(params_));
}

void PairBook::finish() {
  events_.clear();
  if (steps_ == 0) return;
  const double* last = price_row(steps_ - 1);
  for (std::size_t k = 0; k < pairs_.size(); ++k)
    if ((flags_[k] & kOpen) != 0)
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
  return bytes(pairs_) + bytes(runs_) + bytes(prices_) + bytes(corr_hist_) +
         bytes(corr_sum_) + bytes(spread_sum_) + bytes(streak_) + bytes(flags_) +
         bytes(retrace_) + bytes(entry_s_) + bytes(fills_) + bytes(acted_) +
         bytes(acted_avg_) +
         bytes(events_);
}

}  // namespace mm::core
