// PairBook == PairStrategy: the strategy-wide structure-of-arrays book must
// reproduce one reference state machine per pair bit for bit — every Trade
// field, every step's open/closed state, C̄ and spread mean, and the step's
// event list — plus the book's memory and allocation bounds.
//
// Allocations are counted by a binary-wide operator new replacement (the
// tests/test_corr_alloc.cpp pattern), which is why the allocation contract
// lives in this executable.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/pair_book.hpp"
#include "core/strategy.hpp"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// GCC pairs these replacements against its builtin knowledge of new/delete
// and flags the malloc/free plumbing; the pairing here is consistent.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mm::core {
namespace {

constexpr std::size_t kSymbols = 12;

std::uint64_t allocations() { return g_alloc_count.load(std::memory_order_relaxed); }

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string hex(const Trade& t) {
  return format("entry=%lld exit=%lld pi=%a pj=%a xi=%a xj=%a ni=%a nj=%a pnl=%a "
                "basis=%a ret=%a reason=%s",
                static_cast<long long>(t.entry_interval),
                static_cast<long long>(t.exit_interval), t.entry_price_i,
                t.entry_price_j, t.exit_price_i, t.exit_price_j, t.shares_i, t.shares_j,
                t.pnl, t.gross_basis, t.trade_return, to_string(t.exit_reason));
}

StrategyParams small_params() {
  StrategyParams p = ParamGrid::base();
  p.avg_window = 20;
  p.spread_window = 30;
  p.divergence_window = 5;
  p.divergence = 0.05;
  p.max_holding = 15;
  p.no_entry_before_close = 20;
  return p;
}

// A seeded market: log random walks with a common factor, and per-pair
// correlations that wander around a pair level with occasional dips.
class Market {
 public:
  Market(std::size_t symbols, std::size_t pairs, std::uint64_t seed)
      : rng_(seed), prices_(symbols), level_(pairs), corr_(pairs) {
    for (auto& p : prices_) p = rng_.uniform(10.0, 120.0);
    for (auto& l : level_) l = rng_.uniform(0.2, 0.9);
  }

  void advance() {
    const double f = rng_.normal();
    for (auto& p : prices_) p *= std::exp(0.002 * (0.6 * f + rng_.normal()));
    for (std::size_t k = 0; k < corr_.size(); ++k) {
      const double dip = rng_.uniform() < 0.03 ? 0.2 : 0.0;
      corr_[k] = level_[k] + 0.03 * rng_.normal() - dip;
    }
  }

  const std::vector<double>& prices() const { return prices_; }
  const std::vector<double>& corr() const { return corr_; }

 private:
  Rng rng_;
  std::vector<double> prices_;
  std::vector<double> level_;
  std::vector<double> corr_;
};

struct DayStats {
  std::size_t trades = 0;
  std::size_t by_reason[5] = {};
  std::vector<Trade> all;  // the reference's trades, pair by pair
};

// Fills interval s's prices (one per symbol) and correlations (one per pair
// of the list); returns whether the correlations are valid.
using Feed = std::function<bool(std::int64_t s, std::vector<double>& prices,
                                std::vector<double>& corr)>;

// Drive one book over `pairs` and one PairStrategy per pair over `smax`
// intervals of `feed`, comparing state, events and trades at every step.
DayStats expect_book_matches_reference_on(const StrategyParams& params, std::int64_t smax,
                                          std::size_t symbols,
                                          const std::vector<stats::PairIndex>& pairs,
                                          const Feed& feed) {
  PairBook book(params, smax, symbols, pairs);
  std::vector<PairStrategy> ref(pairs.size(), PairStrategy(params, smax));
  std::vector<double> prices(symbols), corr(pairs.size());
  const auto check_events = [&](std::int64_t s, const std::vector<bool>& was_open,
                                const std::vector<std::size_t>& trades_before) {
    std::size_t e = 0;
    const auto& events = book.events();
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      const bool opened = !was_open[k] && ref[k].in_position();
      const bool closed = ref[k].trades().size() > trades_before[k];
      ASSERT_EQ(book.in_position(k), ref[k].in_position()) << "s=" << s << " pair " << k;
      // The running sums follow RollingMean's arithmetic bit for bit.
      if (s < smax) {
        ASSERT_TRUE(same_bits(book.spread_average(k), ref[k].spread_average()))
            << "s=" << s << " pair " << k;
        if (ref[k].correlation_ready()) {
          ASSERT_TRUE(
              same_bits(book.average_correlation(k), ref[k].average_correlation()))
              << "s=" << s << " pair " << k;
        }
      }
      if (!opened && !closed) continue;
      ASSERT_LT(e, events.size()) << "s=" << s << " pair " << k;
      ASSERT_EQ(events[e].pair, k) << "s=" << s;
      if (opened) {
        ASSERT_EQ(events[e].trade, PairBook::kOpened) << "s=" << s;
        const auto& pos = book.position(k);
        EXPECT_EQ(format("%a %a %a %a", pos.shares_i, pos.shares_j, pos.entry_price_i,
                         pos.entry_price_j),
                  format("%a %a %a %a", ref[k].position_shares_i(),
                         ref[k].position_shares_j(), ref[k].position_entry_price_i(),
                         ref[k].position_entry_price_j()))
            << "s=" << s << " pair " << k;
      } else {
        ASSERT_NE(events[e].trade, PairBook::kOpened) << "s=" << s;
        EXPECT_EQ(hex(book.trades()[events[e].trade]), hex(ref[k].trades().back()))
            << "s=" << s << " pair " << k;
      }
      ++e;
    }
    EXPECT_EQ(e, events.size()) << "s=" << s;
  };

  std::vector<bool> was_open(pairs.size());
  std::vector<std::size_t> trades_before(pairs.size());
  const auto snapshot_ref = [&] {
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      was_open[k] = ref[k].in_position();
      trades_before[k] = ref[k].trades().size();
    }
  };
  for (std::int64_t s = 0; s < smax; ++s) {
    const bool valid = feed(s, prices, corr);
    snapshot_ref();
    book.step(s, prices.data(), corr.data(), valid);
    for (std::size_t k = 0; k < pairs.size(); ++k)
      ref[k].step(s, prices[pairs[k].i], prices[pairs[k].j], valid ? corr[k] : 0.0,
                  valid);
    check_events(s, was_open, trades_before);
    if (::testing::Test::HasFatalFailure()) return {};
  }
  snapshot_ref();
  book.finish();
  for (auto& r : ref) r.finish();
  check_events(smax, was_open, trades_before);

  std::vector<Trade> expected;
  for (const auto& r : ref)
    expected.insert(expected.end(), r.trades().begin(), r.trades().end());
  const auto got = book.trades_by_pair();
  EXPECT_EQ(got.size(), expected.size());
  DayStats stats;
  for (std::size_t q = 0; q < std::min(got.size(), expected.size()); ++q) {
    EXPECT_EQ(hex(got[q]), hex(expected[q])) << "trade " << q;
    ++stats.by_reason[static_cast<int>(expected[q].exit_reason)];
  }
  stats.trades = expected.size();
  stats.all = std::move(expected);
  return stats;
}

// The seeded Market over `pairs` of kSymbols; the correlation is invalid for
// the first `invalid_prefix` intervals and, when `gaps`, at every 97th
// interval after it.
DayStats expect_book_matches_reference(const StrategyParams& params, std::int64_t smax,
                                       std::uint64_t seed, std::int64_t invalid_prefix,
                                       bool gaps = false,
                                       const std::vector<stats::PairIndex>& pairs =
                                           stats::all_pairs(kSymbols)) {
  Market market(kSymbols, pairs.size(), seed);
  return expect_book_matches_reference_on(
      params, smax, kSymbols, pairs,
      [&](std::int64_t s, std::vector<double>& prices, std::vector<double>& corr) {
        market.advance();
        prices = market.prices();
        corr = market.corr();
        return s >= invalid_prefix && !(gaps && s % 97 == 0);
      });
}

std::size_t count(const DayStats& d, ExitReason reason) {
  return d.by_reason[static_cast<int>(reason)];
}

TEST(PairBook, MatchesReferenceWithWindowShorterThanSpreadWindow) {
  StrategyParams p = small_params();
  p.no_entry_before_close = 3;  // late entries stay open into the close
  const auto d = expect_book_matches_reference(p, 780, 1, 40);
  EXPECT_GT(count(d, ExitReason::retracement), 0u);
  EXPECT_GT(count(d, ExitReason::max_holding), 0u);
  EXPECT_GT(count(d, ExitReason::end_of_day), 0u);
}

TEST(PairBook, MatchesReferenceWithWindowLongerThanSpreadWindow) {
  StrategyParams p = small_params();
  p.avg_window = 45;
  p.spread_window = 10;
  p.retracement = 0.25;
  const auto d = expect_book_matches_reference(p, 780, 2, 25, /*gaps=*/true);
  EXPECT_GT(d.trades, 100u);
}

TEST(PairBook, MatchesReferenceWithStopLossAndCorrelationReversion) {
  StrategyParams p = small_params();
  p.stop_loss = 0.002;
  p.correlation_reversion_exit = true;
  p.max_holding = 40;
  const auto d = expect_book_matches_reference(p, 780, 3, 40);
  EXPECT_GT(count(d, ExitReason::stop_loss), 0u);
  EXPECT_GT(count(d, ExitReason::correlation_reversion), 0u);
}

TEST(PairBook, MatchesReferenceWithSlippageCostsAndLots) {
  StrategyParams p = small_params();
  p.slippage_frac = 0.0007;
  p.cost_per_share = 0.005;
  p.lot_size = 100.0;
  const auto d = expect_book_matches_reference(p, 780, 4, 40);
  EXPECT_GT(d.trades, 100u);
}

TEST(PairBook, MatchesReferenceAcrossRunningSumRebuilds) {
  // 5000 intervals: both RollingMean running sums are rebuilt at push 4096.
  StrategyParams p = small_params();
  p.avg_window = 30;
  p.spread_window = 25;
  const auto d = expect_book_matches_reference(p, 5000, 5, 100, /*gaps=*/true);
  EXPECT_GT(d.trades, 1000u);
}

// Pair lists whose runs are not whole rows of all_pairs: the book's run
// structure must not change a single decision.
std::vector<std::vector<stats::PairIndex>> run_breaking_lists() {
  std::vector<stats::PairIndex> shuffled = stats::all_pairs(kSymbols);
  Rng rng(23);
  for (std::size_t k = shuffled.size(); k > 1; --k)
    std::swap(shuffled[k - 1], shuffled[rng.uniform_int(k)]);
  shuffled.resize(40);
  return {
      shuffled,
      // Single-pair runs: no two list neighbours share i with consecutive j.
      {{0, 2}, {0, 4}, {1, 3}, {5, 11}, {2, 9}, {2, 7}, {6, 8}, {3, 10}, {9, 11}},
      // Row 0 ends mid-row at j = 5, then rows 1 and 2 whole.
      {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {1, 2}, {1, 3}, {1, 4}, {1, 5},
       {1, 6}, {1, 7}, {1, 8}, {1, 9}, {1, 10}, {1, 11}, {2, 3}, {2, 4}, {2, 5},
       {2, 6}, {2, 7}, {2, 8}, {2, 9}, {2, 10}, {2, 11}},
      // Rows with gaps: row 3 skips j = 6..8, row 7 skips j = 9, row 8 skips all
      // but j = 11.
      {{3, 4}, {3, 5}, {3, 9}, {3, 10}, {3, 11}, {7, 8}, {7, 10}, {7, 11}, {8, 11}},
  };
}

TEST(PairBook, MatchesReferenceOnPairListsThatBreakRuns) {
  StrategyParams p = small_params();
  p.no_entry_before_close = 3;
  std::size_t trades = 0;
  for (const auto& pairs : run_breaking_lists()) {
    SCOPED_TRACE(pairs.size());
    const auto d = expect_book_matches_reference(p, 780, 8, 40, /*gaps=*/true, pairs);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_GT(count(d, ExitReason::retracement), 0u);
    trades += d.trades;
  }
  EXPECT_GT(trades, 100u);
}

TEST(PairBook, MatchesReferenceWithEveryOpenPairChecked) {
  // Stop-loss and correlation reversion each send every open pair to the
  // sparse pass, alone and together, on whole rows and on broken runs.
  const auto lists = run_breaking_lists();
  for (const int mode : {1, 2, 3}) {
    StrategyParams p = small_params();
    p.stop_loss = (mode & 1) != 0 ? 0.002 : 0.0;
    p.correlation_reversion_exit = (mode & 2) != 0;
    p.max_holding = 40;
    for (const auto& pairs : {stats::all_pairs(kSymbols), lists[0], lists[3]}) {
      SCOPED_TRACE(format("mode %d, %zu pairs", mode, pairs.size()));
      const auto d = expect_book_matches_reference(p, 780, 9, 40, /*gaps=*/true, pairs);
      if (::testing::Test::HasFatalFailure()) return;
      EXPECT_GT(d.trades, 0u);
      if (pairs.size() < 66) continue;
      if ((mode & 1) != 0) {
        EXPECT_GT(count(d, ExitReason::stop_loss), 0u);
      }
      if ((mode & 2) != 0) {
        EXPECT_GT(count(d, ExitReason::correlation_reversion), 0u);
      }
    }
  }
}

// One pair (0, 1) whose spread P0 − 100 runs through small exact values, so
// the retracement level and the spread can be equal bit for bit. The RT = 4
// window before the entry at s = 10 alternates −4, +4; the entry spread is
// `entry`, then the spread follows `after` (one value per interval).
DayStats scripted_day(const StrategyParams& params, double entry,
                      const std::vector<double>& after) {
  constexpr std::int64_t kEntry = 10;
  const std::int64_t smax = kEntry + 1 + static_cast<std::int64_t>(after.size());
  return expect_book_matches_reference_on(
      params, smax, 2, {{0, 1}},
      [&](std::int64_t s, std::vector<double>& prices, std::vector<double>& corr) {
        double spread = s % 2 == 0 ? 4.0 : -4.0;
        if (s == kEntry) spread = entry;
        if (s > kEntry) spread = after[static_cast<std::size_t>(s - kEntry - 1)];
        prices = {100.0 + spread, 100.0};
        // A steady correlation with one fresh dip at the entry.
        corr = {s == kEntry ? 0.5 : 0.9};
        return true;
      });
}

StrategyParams scripted_params() {
  StrategyParams p = ParamGrid::base();
  p.avg_window = 4;
  p.spread_window = 4;
  p.divergence_window = 3;
  p.divergence = 0.01;
  p.retracement = 0.25;
  p.max_holding = 50;
  p.no_entry_before_close = 0;
  return p;
}

TEST(PairBook, MatchesReferenceWhenSpreadEqualsRetraceLevel) {
  // Window {+4, −4, +4, −4}: low −4, high +4, range 8, mean 0.
  const auto p = scripted_params();
  // Entry at −4 ≤ mean: exit once the spread rises to −4 + 0.25·8 = −2.
  const auto below = scripted_day(p, -4.0, {-3.0, -2.0, -1.0});
  ASSERT_EQ(below.all.size(), 1u);
  EXPECT_EQ(below.all[0].exit_reason, ExitReason::retracement);
  EXPECT_EQ(below.all[0].exit_interval, 12);
  // Entry at +4 > mean: exit once the spread falls to 4 − 0.25·8 = +2.
  const auto above = scripted_day(p, 4.0, {3.0, 2.0, 1.0});
  ASSERT_EQ(above.all.size(), 1u);
  EXPECT_EQ(above.all[0].exit_reason, ExitReason::retracement);
  EXPECT_EQ(above.all[0].exit_interval, 12);
}

TEST(PairBook, MatchesReferenceAtTheHoldingPeriodBoundary) {
  StrategyParams p = scripted_params();
  p.max_holding = 3;
  // The spread stays short of the −2 level, so only HP closes the position:
  // held at s − entry = 2, closed at s − entry = 3 = HP.
  const auto d = scripted_day(p, -4.0, {-3.0, -3.5, -3.0, -2.5, -3.0});
  ASSERT_EQ(d.all.size(), 1u);
  EXPECT_EQ(d.all[0].exit_reason, ExitReason::max_holding);
  EXPECT_EQ(d.all[0].exit_interval - d.all[0].entry_interval, p.max_holding);
}

TEST(PairBook, ClearTradesKeepsEveryEventAndTrade) {
  // A book that forgets its trades after every step reports the same events
  // and the same closed trades, each indexed from the last clear.
  const auto params = small_params();
  constexpr std::int64_t smax = 400;
  const auto pairs = stats::all_pairs(kSymbols);
  PairBook kept(params, smax, kSymbols, pairs);
  PairBook cleared(params, smax, kSymbols, pairs);
  Market market(kSymbols, pairs.size(), 17);
  std::size_t closes = 0;
  const auto compare = [&](std::int64_t s) {
    ASSERT_EQ(cleared.events().size(), kept.events().size()) << "s=" << s;
    for (std::size_t e = 0; e < kept.events().size(); ++e) {
      const auto& a = kept.events()[e];
      const auto& b = cleared.events()[e];
      ASSERT_EQ(b.pair, a.pair) << "s=" << s;
      ASSERT_EQ(b.trade == PairBook::kOpened, a.trade == PairBook::kOpened) << "s=" << s;
      if (a.trade == PairBook::kOpened) continue;
      EXPECT_EQ(hex(cleared.trades()[b.trade]), hex(kept.trades()[a.trade])) << "s=" << s;
      ++closes;
    }
    EXPECT_EQ(cleared.trades().size(), cleared.trades_by_pair().size());
    cleared.clear_trades();
    EXPECT_TRUE(cleared.trades().empty());
  };
  for (std::int64_t s = 0; s < smax; ++s) {
    market.advance();
    kept.step(s, market.prices().data(), market.corr().data(), s >= 10);
    cleared.step(s, market.prices().data(), market.corr().data(), s >= 10);
    compare(s);
    if (::testing::Test::HasFatalFailure()) return;
  }
  kept.finish();
  cleared.finish();
  compare(smax);
  EXPECT_EQ(closes, kept.trades().size());
  EXPECT_GT(closes, 0u);
}

TEST(PairBook, StateBytesWithinPerPairAndPerSymbolBound) {
  for (const std::size_t n : {12u, 250u}) {
    for (const std::int64_t w : {60, 120}) {
      StrategyParams p = ParamGrid::base();
      p.avg_window = w;
      const auto pairs = stats::all_pairs(n);
      PairBook book(p, 780, n, pairs);
      const std::size_t rows = static_cast<std::size_t>(std::max(w, p.spread_window)) + 1;
      // Per pair: the W-row correlation history, C̄/spread sums and streak,
      // the open flag, the position record, the pair and an event slot.
      const std::size_t per_pair = 8 * static_cast<std::size_t>(w) + 8 * 3 + 1 +
                                   sizeof(PairPosition) + sizeof(stats::PairIndex) +
                                   sizeof(PairBook::Event);
      const std::size_t per_symbol = 8 * rows;
      const std::size_t bound = pairs.size() * per_pair + n * per_symbol;
      EXPECT_LE(book.state_bytes(), bound) << "n=" << n << " W=" << w;
      EXPECT_GE(book.state_bytes(), pairs.size() * 8 * static_cast<std::size_t>(w));

      // Stepping a day leaves the state where it started.
      const std::size_t before = book.state_bytes();
      Market market(n, pairs.size(), 6);
      for (std::int64_t s = 0; s < (n > 100 ? 130 : 780); ++s) {
        market.advance();
        book.step(s, market.prices().data(), market.corr().data(), s >= 20);
      }
      book.finish();
      EXPECT_EQ(book.state_bytes(), before) << "n=" << n << " W=" << w;
    }
  }
}

TEST(PairBookAlloc, StepThatClosesNoTradeAllocatesNothing) {
  const auto pairs = stats::all_pairs(kSymbols);
  PairBook book(small_params(), 780, kSymbols, pairs);
  Market market(kSymbols, pairs.size(), 7);
  market.advance();
  book.step(0, market.prices().data(), market.corr().data(), false);

  std::size_t quiet_steps = 0, entry_steps = 0, closing_steps = 0;
  for (std::int64_t s = 1; s < 780; ++s) {
    market.advance();
    const std::uint64_t before = allocations();
    book.step(s, market.prices().data(), market.corr().data(), s >= 40);
    const std::uint64_t allocated = allocations() - before;

    bool closed = false, opened = false;
    for (const auto& e : book.events()) {
      if (e.trade == PairBook::kOpened) opened = true;
      else closed = true;
    }
    if (closed) {
      ++closing_steps;
      continue;
    }
    EXPECT_EQ(allocated, 0u) << "step " << s;
    if (opened) ++entry_steps;
    else ++quiet_steps;
  }
  EXPECT_GT(quiet_steps, 0u);
  EXPECT_GT(entry_steps, 0u);
  EXPECT_GT(closing_steps, 0u);
}

}  // namespace
}  // namespace mm::core
