// PairBook — every pair of one strategy, stepped together over
// structure-of-arrays state (the pipeline's strategy plane).
//
// A PairStrategy per pair keeps its own price windows, spread deques and
// correlation ring, so each symbol's history is stored n-1 times and every
// pair-step chases its own heap blocks. The book stores:
//
//   per symbol  the last C = max(W, RT) + 1 prices, as a ring of price rows
//               (one row of `symbols` doubles per interval);
//   per pair    the W-interval correlation history, as one strategy-wide ring
//               of W pair rows; running sums for C̄ and the RT spread mean;
//               the divergence streak (int32); a flag byte (open, exit side);
//               and, for an open position, its retracement level, entry
//               interval and entry fills — the PairPosition split into
//               arrays, so the dense pass reads only the fields it tests;
//   per run     the pair list cut into i-major runs (i, j0 .. j0+len-1) of
//               consecutive pairs, built once by the constructor (all_pairs(n)
//               is n − 1 runs, one per row); plus, per position of the longest
//               run, the scratch the two passes below hand over.
//
// A step takes each run in turn, in two passes. The dense pass walks the
// run's pairs with leg i's price broadcast and the j legs' prices contiguous
// in the price row, so it gathers nothing through the pair list: it updates
// the running sums, the correlation ring and the streak, and computes one
// action bit per pair without a data-dependent branch — the entry gate for a
// flat pair; for an open pair a retracement cross or HP, or always when
// stop-loss or correlation reversion is on. Acting pairs are appended to the
// run's scratch list (written for every pair, kept by advancing the count by
// the bit). The sparse pass then takes that list in ascending pair order and
// decides through the §III rule functions of core/strategy.hpp: exit_signal
// and close_trade for an open pair, open_position for a flat one. Spreads are
// recomputed from the price rows (Pi − Pj is exact and repeatable), so the RT
// spread min/max is rebuilt from the rows only for a pair that opens. The
// running sums repeat RollingMean's arithmetic (including its rebuild every
// 4096 pushes), so a book matches one PairStrategy per pair bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/params.hpp"
#include "core/strategy.hpp"
#include "stats/sym_matrix.hpp"

namespace mm::core {

class PairBook {
 public:
  // A position opened (trade == kOpened) or a round trip closed (trade
  // indexes trades()) on `pair` during the last step() or finish().
  struct Event {
    std::uint32_t pair;
    std::uint32_t trade;
  };
  static constexpr std::uint32_t kOpened = 0xffffffffu;

  // `pairs` index into a universe of `symbols`; `smax` as for PairStrategy.
  PairBook(const StrategyParams& params, std::int64_t smax, std::size_t symbols,
           std::vector<stats::PairIndex> pairs);

  // Advance every pair one interval. `prices` holds each symbol's (positive)
  // price at the close of interval s; `corr` holds each pair's correlation in
  // pair order and is read only when `corr_valid`. s must be strictly
  // increasing across calls.
  void step(std::int64_t s, const double* prices, const double* corr, bool corr_valid);

  // End of trading day: close every open position at the last prices.
  void finish();

  // Events of the last step() or finish(), in pair order.
  const std::vector<Event>& events() const { return events_; }

  bool in_position(std::size_t pair) const;
  // C̄ and the RT spread mean of `pair` as PairStrategy reports them (C̄
  // once W correlations arrived, the spread mean after the first step).
  double average_correlation(std::size_t pair) const;
  double spread_average(std::size_t pair) const;
  // The open position of `pair` (its last one once closed).
  PairPosition position(std::size_t pair) const;
  const std::vector<stats::PairIndex>& pairs() const { return pairs_; }

  // Closed round trips in closing order.
  const std::vector<Trade>& trades() const { return trades_; }
  // The same trades grouped by pair in pair order, each pair's in closing
  // order — the order of running PairStrategy over each pair in turn.
  std::vector<Trade> trades_by_pair() const;
  // Forget the closed trades so far (capacity is kept); the trades of later
  // events index from 0 again, and trades_by_pair() covers only them. A
  // caller that consumes each step's events as they come bounds the trade
  // log by one step's closes this way.
  void clear_trades() {
    trades_.clear();
    trade_pair_.clear();
  }

  // Bytes held by the book's state (everything but the closed trades):
  //   pairs   × (8·W + 8·2 + 4 + 1 + 8 + 8 + sizeof(Fills)
  //              + sizeof(PairIndex) + sizeof(Event))      = 8·W + 93 per pair
  // + runs    × sizeof(Run)
  // + symbols × 8·(max(W, RT) + 1)
  // + (4 + 8) × the longest run (≤ symbols).
  // For all_pairs(n), n − 1 runs of at most n − 1 pairs.
  std::size_t state_bytes() const;

 private:
  // Pairs first .. first+len-1 are (i, j0), (i, j0 + 1), ..., (i, j0+len-1).
  struct Run {
    std::uint32_t first;
    std::uint32_t i;
    std::uint32_t j0;
    std::uint32_t len;
  };
  // The entry fills of an open position (the rest of its PairPosition is
  // retrace_, entry_s_ and the exit-side flag).
  struct Fills {
    double entry_price_i;
    double entry_price_j;
    double shares_i;
    double shares_j;
    double gross_basis;
  };
  double* price_row(std::size_t step) {
    return prices_.data() + (step % rows_) * symbols_;
  }
  double spread_at(std::size_t step, std::size_t pair) const;
  double spread_window_sum(std::size_t pair, std::size_t newest) const;
  void rebuild_corr_sums();
  void open(std::size_t pair, const PairPosition& position);
  void close(std::size_t pair, std::int64_t s, double price_i, double price_j,
             ExitReason reason);

  StrategyParams params_;
  std::int64_t smax_;
  std::size_t symbols_;
  std::size_t window_;   // W
  std::size_t spread_window_;  // RT
  std::size_t rows_;     // price-ring rows: max(W, RT) + 1
  std::vector<stats::PairIndex> pairs_;
  std::vector<Run> runs_;

  // Per symbol: price ring, row (step % rows_).
  std::vector<double> prices_;
  // Per pair, structure of arrays.
  std::vector<double> corr_hist_;   // W rows of pairs_.size(), row (push % W)
  std::vector<double> corr_sum_;    // running Σ of the corr window
  std::vector<double> spread_sum_;  // running Σ of the RT spread window
  std::vector<std::int32_t> streak_;
  std::vector<std::uint8_t> flags_;  // open, exit side (pair_book.cpp)
  std::vector<double> retrace_;      // open position's retracement level
  std::vector<std::int64_t> entry_s_;
  std::vector<Fills> fills_;
  // Per position in the longest run, written by the dense pass for the
  // sparse pass: the run offsets of the acting pairs and their C̄ before this
  // step's push.
  std::vector<std::uint32_t> acted_;
  std::vector<double> acted_avg_;

  std::size_t steps_ = 0;
  std::size_t corr_pushes_ = 0;
  std::int64_t last_s_ = -1;

  std::vector<Event> events_;
  std::vector<Trade> trades_;
  std::vector<std::uint32_t> trade_pair_;  // pair of trades_[q]
};

}  // namespace mm::core
