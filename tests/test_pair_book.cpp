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
};

// Drive one book and one PairStrategy per pair over `smax` intervals; the
// correlation is invalid for the first `invalid_prefix` intervals and, when
// `gaps`, at every 97th interval after it.
DayStats expect_book_matches_reference(const StrategyParams& params, std::int64_t smax,
                                       std::uint64_t seed, std::int64_t invalid_prefix,
                                       bool gaps = false) {
  const auto pairs = stats::all_pairs(kSymbols);
  PairBook book(params, smax, kSymbols, pairs);
  std::vector<PairStrategy> ref(pairs.size(), PairStrategy(params, smax));
  Market market(kSymbols, pairs.size(), seed);

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
    market.advance();
    const bool valid = s >= invalid_prefix && !(gaps && s % 97 == 0);
    snapshot_ref();
    book.step(s, market.prices().data(), market.corr().data(), valid);
    for (std::size_t k = 0; k < pairs.size(); ++k)
      ref[k].step(s, market.prices()[pairs[k].i], market.prices()[pairs[k].j],
                  valid ? market.corr()[k] : 0.0, valid);
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
  return stats;
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
