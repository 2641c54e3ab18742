#include "core/strategy.hpp"

#include <cmath>

namespace mm::core {

const char* to_string(ExitReason reason) {
  switch (reason) {
    case ExitReason::retracement: return "retracement";
    case ExitReason::max_holding: return "max_holding";
    case ExitReason::end_of_day: return "end_of_day";
    case ExitReason::stop_loss: return "stop_loss";
    case ExitReason::correlation_reversion: return "correlation_reversion";
  }
  return "?";
}

ShareRatio size_position(double price_i, double price_j, bool long_i) {
  MM_ASSERT_MSG(price_i > 0.0 && price_j > 0.0, "size_position: non-positive price");
  // The paper states the rule for Pi > Pj; by symmetry we express it as: one
  // share of the higher-priced leg, x shares of the cheaper leg, with x
  // rounded *down* when the expensive leg is long (so the long side still
  // edges ahead) and *up* when the cheap leg is long.
  const bool i_expensive = price_i >= price_j;
  const double ratio = i_expensive ? price_i / price_j : price_j / price_i;
  const bool long_expensive = (long_i == i_expensive);
  const double x = long_expensive ? std::floor(ratio) : std::ceil(ratio);
  const double x_clamped = x < 1.0 ? 1.0 : x;

  double ni, nj;
  if (i_expensive) {
    ni = 1.0;
    nj = x_clamped;
  } else {
    ni = x_clamped;
    nj = 1.0;
  }
  if (!long_i) ni = -ni;
  if (long_i) nj = -nj;
  return {ni, nj};
}

PairPosition open_position(const StrategyParams& params, std::int64_t s, double price_i,
                           double price_j, double first_i, double first_j,
                           double spread_low, double spread_high, double spread_avg) {
  // Direction (step 3): the over-performer has the higher W-interval return.
  const double ret_i = price_i / first_i - 1.0;
  const double ret_j = price_j / first_j - 1.0;
  const bool long_i = ret_i < ret_j;  // long the under-performer

  const auto shares = size_position(price_i, price_j, long_i);

  // Retracement level (step 5), fixed at entry from the RT-window spread.
  PairPosition pos;
  const double entry_spread = price_i - price_j;
  const double range = spread_high - spread_low;
  if (entry_spread <= spread_avg) {
    pos.retrace_level = spread_low + params.retracement * range;
    pos.exit_when_spread_above = true;
  } else {
    pos.retrace_level = spread_high - params.retracement * range;
    pos.exit_when_spread_above = false;
  }

  pos.entry_s = s;
  // Slippage: each leg is filled at a price worsened in the direction traded.
  const double slip = params.slippage_frac;
  pos.entry_price_i = price_i * (shares.shares_i > 0 ? 1.0 + slip : 1.0 - slip);
  pos.entry_price_j = price_j * (shares.shares_j > 0 ? 1.0 + slip : 1.0 - slip);
  pos.shares_i = shares.shares_i * params.lot_size;
  pos.shares_j = shares.shares_j * params.lot_size;
  pos.gross_basis = std::abs(pos.shares_i) * pos.entry_price_i +
                    std::abs(pos.shares_j) * pos.entry_price_j;
  return pos;
}

std::optional<ExitReason> exit_signal(const StrategyParams& params,
                                      const PairPosition& pos, std::int64_t s,
                                      double price_i, double price_j, double corr,
                                      bool corr_valid, double avg_corr) {
  // Retracement cross (step 5).
  const double spread = price_i - price_j;
  if (retracement_cross(pos.exit_when_spread_above, pos.retrace_level, spread))
    return ExitReason::retracement;

  // Optional absolute stop-loss on the mark-to-market return.
  if (params.stop_loss > 0.0) {
    const double pnl = pos.shares_i * (price_i - pos.entry_price_i) +
                       pos.shares_j * (price_j - pos.entry_price_j);
    if (pnl / pos.gross_basis <= -params.stop_loss) return ExitReason::stop_loss;
  }

  // Optional correlation reversion: C back inside [C̄(1-d), C̄].
  if (params.correlation_reversion_exit && corr_valid &&
      corr >= avg_corr * (1.0 - params.divergence) && corr <= avg_corr)
    return ExitReason::correlation_reversion;

  // Maximum holding period HP.
  if (holding_expired(params, pos.entry_s, s)) return ExitReason::max_holding;
  return std::nullopt;
}

Trade close_trade(const StrategyParams& params, const PairPosition& pos, std::int64_t s,
                  double price_i, double price_j, ExitReason reason) {
  const double slip = params.slippage_frac;
  // Exit fills are worsened opposite to the held direction (selling longs
  // lower, buying back shorts higher).
  const double exit_i = price_i * (pos.shares_i > 0 ? 1.0 - slip : 1.0 + slip);
  const double exit_j = price_j * (pos.shares_j > 0 ? 1.0 - slip : 1.0 + slip);

  Trade t;
  t.entry_interval = pos.entry_s;
  t.exit_interval = s;
  t.entry_price_i = pos.entry_price_i;
  t.entry_price_j = pos.entry_price_j;
  t.exit_price_i = exit_i;
  t.exit_price_j = exit_j;
  t.shares_i = pos.shares_i;
  t.shares_j = pos.shares_j;
  t.gross_basis = pos.gross_basis;
  const double costs =
      params.cost_per_share * 2.0 * (std::abs(pos.shares_i) + std::abs(pos.shares_j));
  t.pnl = pos.shares_i * (exit_i - pos.entry_price_i) +
          pos.shares_j * (exit_j - pos.entry_price_j) - costs;
  t.trade_return = t.pnl / t.gross_basis;
  t.exit_reason = reason;
  return t;
}

PairStrategy::PairStrategy(const StrategyParams& params, std::int64_t smax)
    : params_(params),
      smax_(smax),
      corr_mean_(static_cast<std::size_t>(params.avg_window)),
      price_hist_i_(static_cast<std::size_t>(params.avg_window) + 1),
      price_hist_j_(static_cast<std::size_t>(params.avg_window) + 1),
      spread_extremes_(static_cast<std::size_t>(params.spread_window)),
      spread_mean_(static_cast<std::size_t>(params.spread_window)) {
  MM_ASSERT_MSG(params.validate().has_value(), "invalid StrategyParams");
  MM_ASSERT_MSG(smax > 0, "smax must be positive");
}

void PairStrategy::step(std::int64_t s, double price_i, double price_j, double corr,
                        bool corr_valid) {
  MM_ASSERT_MSG(s > last_s_, "intervals must be strictly increasing");
  MM_ASSERT_MSG(price_i > 0.0 && price_j > 0.0, "non-positive price");
  last_s_ = s;
  last_price_i_ = price_i;
  last_price_j_ = price_j;

  // Update price/spread windows every interval.
  price_hist_i_.push(price_i);
  price_hist_j_.push(price_j);
  const double spread = price_i - price_j;
  spread_extremes_.update(spread);
  spread_mean_.update(spread);

  // Update the correlation signal (step 1) and divergence freshness (step 2).
  // The average C̄ used for decisions at interval s is the trailing mean over
  // the W intervals before s (computed before pushing C(s)).
  bool fresh = false;
  bool avg_ready = false;
  double avg_corr = 0.0;
  if (corr_valid) {
    avg_ready = corr_mean_.full();
    if (avg_ready) {
      avg_corr = corr_mean_.mean();
      diverged_streak_ =
          next_divergence_streak(params_, corr, avg_corr, diverged_streak_);
      fresh = fresh_divergence(params_, diverged_streak_);
    }
    corr_mean_.update(corr);
  } else {
    diverged_streak_ = 0;
  }

  if (open_) {
    if (const auto reason = exit_signal(params_, position_, s, price_i, price_j, corr,
                                        corr_valid && avg_ready, avg_corr))
      close_position(s, price_i, price_j, *reason);
    return;
  }

  // Entry: all windows warm and the signal gate passed.
  if (!price_hist_i_.full() || !spread_mean_.full()) return;
  if (!entry_signal(params_, s, smax_, fresh, avg_corr)) return;
  position_ = open_position(params_, s, price_i, price_j, price_hist_i_.oldest(),
                            price_hist_j_.oldest(), spread_extremes_.min(),
                            spread_extremes_.max(), spread_mean_.mean());
  open_ = true;
}

void PairStrategy::close_position(std::int64_t s, double price_i, double price_j,
                                  ExitReason reason) {
  MM_ASSERT(open_);
  trades_.push_back(close_trade(params_, position_, s, price_i, price_j, reason));
  open_ = false;
  diverged_streak_ = streak_after_close(params_);
}

void PairStrategy::finish() {
  if (!open_) return;
  close_position(last_s_, last_price_i_, last_price_j_, ExitReason::end_of_day);
}

}  // namespace mm::core
