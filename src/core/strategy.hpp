// The canonical pair trading strategy of §III, as a per-pair state machine.
//
// Feed one step per ∆s interval: the two legs' prices and the pair's current
// correlation coefficient (computed elsewhere over the last M log-returns).
// The machine implements the paper's six steps:
//   1. average correlation C̄ over the last W intervals;
//   2. entry check — C̄ > A and the correlation freshly diverged more than
//      d (fraction) below C̄ within the last Y intervals;
//   3. direction — long the under-performer / short the over-performer by
//      W-interval return;
//   4. cash-neutral-but-slightly-long share ratio via the floor/ceil price
//      ratio rule;
//   5. exit — spread retracement to level L (ℓ between the RT-window spread
//      extremes, side chosen by where the entry spread sat relative to the
//      window average), a maximum holding period HP, end of day, and the
//      optional extensions (absolute stop-loss, correlation reversion);
//   6. trade return = pnl / (Pi·Ni + Pj·Nj) at entry.
//
// Interpretation note (the paper leaves this implicit): "diverged within the
// last Y intervals" is read as *freshness* — the streak of consecutive
// diverged intervals must be at most Y long, so a pair stuck in a stale
// divergence does not re-trigger all day.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/params.hpp"
#include "stats/rolling.hpp"

namespace mm::core {

enum class ExitReason : std::uint8_t {
  retracement,
  max_holding,
  end_of_day,
  stop_loss,
  correlation_reversion,
};

const char* to_string(ExitReason reason);

// A completed round trip on one pair. Shares are signed (+long / -short).
struct Trade {
  std::int64_t entry_interval = 0;
  std::int64_t exit_interval = 0;
  double entry_price_i = 0.0;
  double entry_price_j = 0.0;
  double exit_price_i = 0.0;
  double exit_price_j = 0.0;
  double shares_i = 0.0;
  double shares_j = 0.0;
  double pnl = 0.0;           // dollars, net of configured costs
  double gross_basis = 0.0;   // |Ni|·Pi + |Nj|·Pj at entry (the paper's Eq. 6 denom)
  double trade_return = 0.0;  // pnl / gross_basis
  ExitReason exit_reason = ExitReason::end_of_day;
};

// An open position: slippage-adjusted entry fills, signed share counts and
// the retracement exit fixed at entry.
struct PairPosition {
  std::int64_t entry_s = 0;
  double entry_price_i = 0.0;
  double entry_price_j = 0.0;
  double shares_i = 0.0;  // signed
  double shares_j = 0.0;
  double gross_basis = 0.0;
  double retrace_level = 0.0;
  bool exit_when_spread_above = false;  // direction of the retracement cross
};

// --- §III decision rules ----------------------------------------------------
// The per-pair reference (PairStrategy) and the strategy-wide book (PairBook)
// both decide through these functions, so the two agree bit for bit. The
// book evaluates the streak, freshness, entry-gate and retracement rules for
// every pair at every step, and their comparisons are close to coin flips on
// live data (whether C dips below C̄(1-d) is), so they combine comparisons
// with bitwise operators and 0/1 arithmetic, which compile without branches.

// Step 2: the divergence streak after C(s) against the trailing C̄ — the
// number of consecutive intervals with C < C̄(1-d).
inline std::int64_t next_divergence_streak(const StrategyParams& params, double corr,
                                           double avg_corr, std::int64_t streak) {
  const bool diverged = corr < avg_corr * (1.0 - params.divergence);
  return static_cast<std::int64_t>(diverged) * (streak + 1);
}

// A divergence is fresh while its streak is at most Y intervals long.
inline bool fresh_divergence(const StrategyParams& params, std::int64_t streak) {
  return (streak > 0) & (streak <= params.divergence_window);
}

// After a close, a divergence that is still running must not re-trigger.
inline std::int64_t streak_after_close(const StrategyParams& params) {
  return params.divergence_window + 1;
}

// Step 5's retracement cross: the spread reached the level fixed at entry,
// moving away from the side the position was opened on.
inline bool retracement_cross(bool exit_when_spread_above, double retrace_level,
                              double spread) {
  return (exit_when_spread_above & (spread >= retrace_level)) |
         (!exit_when_spread_above & (spread <= retrace_level));
}

// Step 5's maximum holding period HP.
inline bool holding_expired(const StrategyParams& params, std::int64_t entry_s,
                            std::int64_t s) {
  return s - entry_s >= params.max_holding;
}

// Entry gate (steps 2-3) once every window is warm: a fresh divergence, C̄
// above A, and more than ST intervals left in the session.
inline bool entry_signal(const StrategyParams& params, std::int64_t s, std::int64_t smax,
                         bool fresh, double avg_corr) {
  return fresh & (avg_corr > params.min_correlation) &
         (s < smax - params.no_entry_before_close);
}

// Steps 3-5 at entry: direction from the W-interval returns (`first_i`,
// `first_j` are the legs' prices W intervals ago), sizing, the retracement
// level from the RT-window spread low/high/average, and slippage-adjusted
// fills.
PairPosition open_position(const StrategyParams& params, std::int64_t s, double price_i,
                           double price_j, double first_i, double first_j,
                           double spread_low, double spread_high, double spread_avg);

// Step 5: the exit rules in priority order (retracement, stop-loss,
// correlation reversion, HP); nullopt keeps the position open. `corr_valid`
// is false when C(s) or C̄ is unavailable.
std::optional<ExitReason> exit_signal(const StrategyParams& params,
                                      const PairPosition& position, std::int64_t s,
                                      double price_i, double price_j, double corr,
                                      bool corr_valid, double avg_corr);

// Step 6: the round trip of `position` closed at interval s at the legs'
// prices (exit slippage and costs applied).
Trade close_trade(const StrategyParams& params, const PairPosition& position,
                  std::int64_t s, double price_i, double price_j, ExitReason reason);

// The per-pair reference state machine: its own windows and deques per pair.
// The pipeline runs PairBook; run_pair_day runs this, and the two are held
// bit-identical by tests.
class PairStrategy {
 public:
  // `smax` is the number of intervals in the trading day; the ST rule (no new
  // positions within ST intervals of the close) is enforced against it.
  PairStrategy(const StrategyParams& params, std::int64_t smax);

  // Advance one interval. `corr_valid` is false until the upstream window has
  // M returns. Prices are the legs' BAM at the close of interval s; s must be
  // strictly increasing across calls.
  void step(std::int64_t s, double price_i, double price_j, double corr,
            bool corr_valid);

  // End of trading day: close any open position at the last seen prices
  // (§III step 5: "reverse all positions at the end of the trading day").
  void finish();

  bool in_position() const { return open_; }
  const std::vector<Trade>& trades() const { return trades_; }
  std::vector<Trade> take_trades() { return std::move(trades_); }

  // Introspection for tests.
  bool correlation_ready() const { return corr_mean_.full(); }
  double average_correlation() const { return corr_mean_.mean(); }
  double spread_average() const { return spread_mean_.mean(); }
  std::int64_t entry_interval() const { return position_.entry_s; }
  double position_shares_i() const { return position_.shares_i; }
  double position_shares_j() const { return position_.shares_j; }
  double position_entry_price_i() const { return position_.entry_price_i; }
  double position_entry_price_j() const { return position_.entry_price_j; }

 private:
  void close_position(std::int64_t s, double price_i, double price_j,
                      ExitReason reason);

  StrategyParams params_;
  std::int64_t smax_;

  // Signal state.
  stats::RollingMean corr_mean_;            // C̄ over W
  std::int64_t diverged_streak_ = 0;        // consecutive intervals below C̄(1-d)

  // Price/spread state.
  stats::RollingWindow<double> price_hist_i_;  // last W+1 prices for W-return
  stats::RollingWindow<double> price_hist_j_;
  stats::RollingMinMax spread_extremes_;       // over RT
  stats::RollingMean spread_mean_;             // over RT

  // Position state.
  bool open_ = false;
  PairPosition position_;

  std::int64_t last_s_ = -1;
  double last_price_i_ = 0.0, last_price_j_ = 0.0;

  std::vector<Trade> trades_;
};

// Cash-neutral-but-slightly-long sizing (§III step 4). Returns signed share
// counts for legs i and j given the entry prices and which leg goes long.
struct ShareRatio {
  double shares_i;
  double shares_j;
};
ShareRatio size_position(double price_i, double price_j, bool long_i);

}  // namespace mm::core
