// Unit tests for individual Fig. 1 pipeline components, each driven through a
// minimal dagflow graph with a scripted source and a capturing sink.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <tuple>

#include "common/rng.hpp"
#include "core/strategy.hpp"
#include "dagflow/context.hpp"
#include "engine/components.hpp"
#include "engine/messages.hpp"
#include "marketdata/generator.hpp"

namespace mm::engine {
namespace {

md::Quote quote_at(md::TimeMs ts, md::SymbolId sym, double mid) {
  md::Quote q;
  q.ts_ms = ts;
  q.symbol = sym;
  q.bid = mid - 0.05;
  q.ask = mid + 0.05;
  q.bid_size = 1;
  q.ask_size = 1;
  return q;
}

// Runs the node `add_uut` adds with a source that emits `input` payloads and
// returns every payload the node emits on its port 0.
std::vector<std::vector<std::uint8_t>> drive_node(
    const std::function<int(dag::Graph&)>& add_uut,
    std::vector<std::vector<std::uint8_t>> input) {
  std::vector<std::vector<std::uint8_t>> captured;
  dag::Graph g;
  const int src = g.add_node("src", [&](dag::Context& ctx) {
    for (auto& payload : input) ctx.emit(0, std::move(payload));
  });
  const int uut = add_uut(g);
  const int sink = g.add_node("sink", [&](dag::Context& ctx) {
    while (auto msg = ctx.recv()) captured.push_back(std::move(msg->bytes));
  });
  g.connect(src, 0, uut, 0);
  g.connect(uut, 0, sink, 0);
  g.run();
  return captured;
}

std::vector<std::vector<std::uint8_t>> drive(dag::NodeFn node,
                                             std::vector<std::vector<std::uint8_t>> input) {
  return drive_node([&](dag::Graph& g) { return g.add_node("uut", std::move(node)); },
                    std::move(input));
}

// A group node with one member (the leader).
std::vector<std::vector<std::uint8_t>> drive_group(
    dag::GroupNodeFn node, std::vector<std::vector<std::uint8_t>> input) {
  return drive_node(
      [&](dag::Graph& g) { return g.add_group_node("uut", std::move(node), 1); },
      std::move(input));
}

TEST(FileCollector, BatchesAndFlushesRemainder) {
  std::vector<md::Quote> quotes;
  const md::Session session;
  for (int i = 0; i < 10; ++i)
    quotes.push_back(quote_at(session.open_ms() + i * 1000, 0, 20.0));

  std::vector<std::vector<std::uint8_t>> captured;
  dag::Graph g;
  const int src = g.add_node("collector", make_file_collector(quotes, 4));
  const int sink = g.add_node("sink", [&](dag::Context& ctx) {
    while (auto msg = ctx.recv()) captured.push_back(std::move(msg->bytes));
  });
  g.connect(src, 0, sink, 0);
  g.run();

  ASSERT_EQ(captured.size(), 3u);  // 4 + 4 + 2
  mpi::Unpacker last(captured.back());
  ASSERT_EQ(static_cast<RecordType>(last.get<std::uint8_t>()), RecordType::quote_batch);
  EXPECT_EQ(QuoteBatch::unpack(last).quotes.size(), 2u);
}

TEST(CleanerNode, FiltersWithinBatches) {
  const md::Session session;
  QuoteBatch batch;
  for (int i = 0; i < 60; ++i)
    batch.quotes.push_back(quote_at(session.open_ms() + i * 500, 0, 30.0));
  batch.quotes.push_back(quote_at(session.open_ms() + 60 * 500, 0, 90.0));  // outlier

  const auto captured = drive(make_cleaner(1, md::CleanerConfig{}), {batch.pack()});
  ASSERT_EQ(captured.size(), 1u);
  mpi::Unpacker u(captured[0]);
  ASSERT_EQ(static_cast<RecordType>(u.get<std::uint8_t>()), RecordType::quote_batch);
  EXPECT_EQ(QuoteBatch::unpack(u).quotes.size(), 60u);
}

TEST(SnapshotStage, EmitsEveryIntervalWithCarryForward) {
  const md::Session session;
  QuoteBatch batch;
  batch.quotes.push_back(quote_at(session.open_ms() + 1000, 0, 10.0));
  batch.quotes.push_back(quote_at(session.open_ms() + 95'000, 0, 12.0));  // interval 3

  const auto captured =
      drive(make_snapshot_stage(1, session, 30, {10.0}), {batch.pack()});
  ASSERT_EQ(captured.size(), 780u);  // one per interval, EOS flush included

  // Interval 0 closes at the first price; intervals 1-2 carry it forward;
  // interval 3 onward carries the second price.
  const auto snap_at = [&](std::size_t s) {
    mpi::Unpacker u(captured[s]);
    EXPECT_EQ(static_cast<RecordType>(u.get<std::uint8_t>()), RecordType::snapshot);
    return Snapshot::unpack(u);
  };
  EXPECT_DOUBLE_EQ(snap_at(0).prices[0], 10.0);
  EXPECT_DOUBLE_EQ(snap_at(2).prices[0], 10.0);
  EXPECT_DOUBLE_EQ(snap_at(3).prices[0], 12.0);
  EXPECT_DOUBLE_EQ(snap_at(779).prices[0], 12.0);
  // Returns: empty at s=0, log-return at s=3, zero where carried.
  EXPECT_TRUE(snap_at(0).returns.empty());
  EXPECT_NEAR(snap_at(3).returns[0], std::log(12.0 / 10.0), 1e-12);
  EXPECT_DOUBLE_EQ(snap_at(2).returns[0], 0.0);
  // Intervals are sequential.
  for (std::size_t s = 0; s < 780; ++s)
    EXPECT_EQ(snap_at(s).interval, static_cast<std::int64_t>(s));
}

TEST(CorrelationStage, FramesInvalidUntilWindowFills) {
  const md::Session session;
  // Feed synthetic snapshots directly.
  std::vector<std::vector<std::uint8_t>> input;
  mm::Rng rng(3);
  for (int s = 0; s < 30; ++s) {
    Snapshot snap;
    snap.interval = s;
    snap.prices = {10.0, 20.0};
    if (s > 0) snap.returns = {rng.normal() * 1e-4, rng.normal() * 1e-4};
    input.push_back(snap.pack());
  }

  const auto captured = drive_group(
      make_correlation_stage(2, /*corr_window=*/10, true, {}, /*fan_out=*/1), input);
  ASSERT_EQ(captured.size(), 30u);
  for (std::size_t s = 0; s < 30; ++s) {
    mpi::Unpacker u(captured[s]);
    ASSERT_EQ(static_cast<RecordType>(u.get<std::uint8_t>()), RecordType::corr_frame);
    const auto frame = CorrFrame::unpack(u);
    // Window of 10 returns fills at interval 10.
    EXPECT_EQ(frame.valid, s >= 10) << "interval " << s;
    if (frame.valid) {
      ASSERT_EQ(frame.pearson.size(), 1u);
      ASSERT_EQ(frame.maronna.size(), 1u);
      EXPECT_GE(frame.pearson[0], -1.0);
      EXPECT_LE(frame.pearson[0], 1.0);
    }
  }
}

TEST(StrategyNode, EmitsPairedEntryExitOrdersAndSummary) {
  // Synthesize corr frames that warm up, then force a divergence.
  core::StrategyParams params = core::ParamGrid::base();
  params.avg_window = 5;
  params.divergence_window = 3;
  params.spread_window = 4;
  params.max_holding = 6;
  params.divergence = 0.01;

  std::vector<std::vector<std::uint8_t>> input;
  for (int s = 0; s < 40; ++s) {
    CorrFrame frame;
    frame.interval = s;
    frame.valid = true;
    frame.prices = {100.0, 50.0 + 0.25 * s};
    frame.pearson = {s == 30 ? 0.5 : 0.9};
    input.push_back(frame.pack());
  }

  const auto captured = drive(
      make_strategy_stage(params, {{0, 1}}, /*strategy_id=*/7, /*smax=*/780), input);

  // Expect: entry order at s=30, an exit order (HP at s=36), and a summary.
  std::size_t entries = 0, exits = 0, summaries = 0;
  for (const auto& bytes : captured) {
    mpi::Unpacker u(bytes);
    const auto type = static_cast<RecordType>(u.get<std::uint8_t>());
    if (type == RecordType::order_batch) {
      for (const auto& order : OrderBatch::unpack(u).orders) {
        EXPECT_EQ(order.strategy_id, 7);
        if (order.is_entry) {
          ++entries;
          EXPECT_EQ(order.interval, 30);
        } else {
          ++exits;
          // Exit shares cancel the entry exactly (flat after round trip).
        }
      }
    } else if (type == RecordType::strategy_summary) {
      ++summaries;
      EXPECT_EQ(StrategySummary::unpack(u).trades, 1u);
    }
  }
  EXPECT_EQ(entries, 1u);
  EXPECT_EQ(exits, 1u);
  EXPECT_EQ(summaries, 1u);
}

TEST(StrategyNode, ReadsItsPairsFromTheirCanonicalFrameSlots) {
  // A non-prefix pair subset of a 5-symbol universe. Each of the stage's
  // pairs sees its correlation dip on its own canonical slot at its own
  // interval; every other slot dips at s = 25. Entries at exactly the
  // expected intervals mean each pair read its own slot.
  core::StrategyParams params = core::ParamGrid::base();
  params.avg_window = 5;
  params.divergence_window = 3;
  params.spread_window = 4;
  params.max_holding = 6;
  params.divergence = 0.01;

  constexpr std::size_t n = 5;
  const std::vector<stats::PairIndex> pairs = {{1, 3}, {2, 4}};
  const std::int64_t dip_at[] = {30, 20};
  std::vector<std::vector<std::uint8_t>> input;
  for (int s = 0; s < 40; ++s) {
    CorrFrame frame;
    frame.interval = s;
    frame.valid = true;
    frame.prices = {100.0, 100.0, 100.0, 50.0 + 0.25 * s, 50.0 + 0.25 * s};
    frame.pearson.assign(n * (n - 1) / 2, s == 25 ? 0.5 : 0.9);
    for (std::size_t k = 0; k < pairs.size(); ++k)
      frame.pearson[stats::pair_slot(n, pairs[k].i, pairs[k].j)] =
          s == dip_at[k] ? 0.5 : 0.9;
    input.push_back(frame.pack());
  }

  const auto captured =
      drive(make_strategy_stage(params, pairs, /*strategy_id=*/3, /*smax=*/780), input);

  std::vector<int> entries(pairs.size(), 0);
  for (const auto& bytes : captured) {
    mpi::Unpacker u(bytes);
    if (static_cast<RecordType>(u.get<std::uint8_t>()) != RecordType::order_batch)
      continue;
    for (const auto& order : OrderBatch::unpack(u).orders) {
      if (!order.is_entry) continue;
      std::size_t k = 0;
      while (k < pairs.size() &&
             !(pairs[k].i == order.symbol_i && pairs[k].j == order.symbol_j))
        ++k;
      ASSERT_LT(k, pairs.size()) << "order for a pair the stage does not own";
      EXPECT_EQ(order.interval, dip_at[k]) << "pair " << k;
      ++entries[k];
    }
  }
  EXPECT_EQ(entries, std::vector<int>(pairs.size(), 1));
}

// Orders keyed by (interval, symbol i, symbol j, is_entry) — a pair places
// at most one entry and one exit per interval (both only when the end of day
// closes a position opened in the last interval) — with the shares and
// prices printed exactly.
using OrderKey = std::tuple<std::int64_t, std::uint32_t, std::uint32_t, bool>;

std::string order_text(double shares_i, double shares_j, double price_i, double price_j) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%a %a %a %a", shares_i, shares_j, price_i, price_j);
  return buf;
}

TEST(StrategyNode, DirectReadGatherAndCombinedMatchPerPairReference) {
  // A seeded 6-symbol day of frames carrying Pearson and Maronna vectors.
  // The stage reads a canonical pair list's Pearson or Maronna vector in
  // place, gathers a sub-list's from the canonical slots, and derives
  // Combined per pair; every path must place exactly the orders of one
  // PairStrategy per pair fed the same correlations.
  core::StrategyParams params = core::ParamGrid::base();
  params.avg_window = 5;
  params.divergence_window = 3;
  params.spread_window = 4;
  params.max_holding = 6;
  params.divergence = 0.01;

  constexpr std::size_t n = 6;
  constexpr std::int64_t kIntervals = 300;
  const auto canonical = stats::all_pairs(n);
  Rng rng(31);
  std::vector<double> prices(n);
  for (auto& p : prices) p = rng.uniform(20.0, 80.0);
  std::vector<CorrFrame> frames;
  for (std::int64_t s = 0; s < kIntervals; ++s) {
    CorrFrame frame;
    frame.interval = s;
    frame.valid = s >= 10;
    for (auto& p : prices) p *= std::exp(0.003 * rng.normal());
    frame.prices = prices;
    if (frame.valid) {
      for (std::size_t k = 0; k < canonical.size(); ++k) {
        const double dip = rng.uniform() < 0.05 ? 0.3 : 0.0;
        frame.pearson.push_back(0.8 + 0.02 * rng.normal() - dip);
        frame.maronna.push_back(0.7 + 0.02 * rng.normal() - dip);
      }
    }
    frames.push_back(std::move(frame));
  }
  const auto corr_of = [](const CorrFrame& f, stats::Ctype ctype, std::size_t slot) {
    switch (ctype) {
      case stats::Ctype::pearson: return f.pearson[slot];
      case stats::Ctype::maronna: return f.maronna[slot];
      case stats::Ctype::combined: break;
    }
    return stats::combine(f.pearson[slot], f.maronna[slot]);
  };

  const std::vector<stats::PairIndex> sub = {{0, 2}, {0, 3}, {1, 5}, {2, 3}, {4, 5}};
  const std::pair<stats::Ctype, const std::vector<stats::PairIndex>*> cases[] = {
      {stats::Ctype::pearson, &canonical},  {stats::Ctype::maronna, &canonical},
      {stats::Ctype::combined, &canonical}, {stats::Ctype::pearson, &sub},
      {stats::Ctype::maronna, &sub},        {stats::Ctype::combined, &sub},
  };
  for (const auto& [ctype, pairs] : cases) {
    SCOPED_TRACE(std::string(stats::to_string(ctype)) + " over " +
                 std::to_string(pairs->size()) + " pairs");
    params.ctype = ctype;

    std::map<OrderKey, std::string> expected;
    for (const auto& pair : *pairs) {
      const std::size_t slot = stats::pair_slot(n, pair.i, pair.j);
      core::PairStrategy ref(params, 780);
      for (const auto& f : frames)
        ref.step(f.interval, f.prices[pair.i], f.prices[pair.j],
                 f.valid ? corr_of(f, ctype, slot) : 0.0, f.valid);
      ref.finish();
      for (const auto& t : ref.trades()) {
        expected[{t.entry_interval, pair.i, pair.j, true}] =
            order_text(t.shares_i, t.shares_j, t.entry_price_i, t.entry_price_j);
        expected[{t.exit_interval, pair.i, pair.j, false}] =
            order_text(-t.shares_i, -t.shares_j, t.exit_price_i, t.exit_price_j);
      }
    }
    ASSERT_GT(expected.size(), 10u);

    std::vector<std::vector<std::uint8_t>> input;
    for (const auto& f : frames) input.push_back(f.pack());
    const auto captured =
        drive(make_strategy_stage(params, *pairs, /*strategy_id=*/1, 780), input);
    std::map<OrderKey, std::string> got;
    for (const auto& bytes : captured) {
      mpi::Unpacker u(bytes);
      if (static_cast<RecordType>(u.get<std::uint8_t>()) != RecordType::order_batch)
        continue;
      for (const auto& o : OrderBatch::unpack(u).orders) {
        const bool fresh =
            got.emplace(OrderKey{o.interval, o.symbol_i, o.symbol_j, o.is_entry != 0},
                        order_text(o.shares_i, o.shares_j, o.price_i, o.price_j))
                .second;
        EXPECT_TRUE(fresh) << "a repeated order in interval " << o.interval;
      }
    }
    EXPECT_EQ(got, expected);
  }
}

TEST(ClusterStage, EmitsGroupingsAtCadence) {
  // 4 symbols, pairs (canonical): 01 02 03 12 13 23. Frames carry a
  // two-block structure: {0,1} and {2,3} tight, cross weak.
  std::vector<std::vector<std::uint8_t>> input;
  for (int s = 0; s < 30; ++s) {
    CorrFrame frame;
    frame.interval = s;
    frame.valid = s >= 5;
    frame.prices = {10, 11, 12, 13};
    frame.pearson = {0.9, 0.1, 0.1, 0.1, 0.1, 0.85};
    input.push_back(frame.pack());
  }

  const auto captured = drive(make_cluster_stage(4, 2, /*cadence=*/10), input);
  // Valid frames at intervals 5..29; cadence 10 -> intervals 10 and 20.
  ASSERT_EQ(captured.size(), 2u);
  for (const auto& bytes : captured) {
    mpi::Unpacker u(bytes);
    ASSERT_EQ(static_cast<RecordType>(u.get<std::uint8_t>()),
              RecordType::cluster_snapshot);
    const auto snap = ClusterSnapshot::unpack(u);
    EXPECT_EQ(snap.cluster_count, 2);
    ASSERT_EQ(snap.assignment.size(), 4u);
    EXPECT_EQ(snap.assignment[0], snap.assignment[1]);
    EXPECT_EQ(snap.assignment[2], snap.assignment[3]);
    EXPECT_NE(snap.assignment[0], snap.assignment[2]);
  }
}

TEST(MasterNode, AggregatesAcrossInputs) {
  MasterReport report;
  dag::Graph g;
  const auto emit_orders = [](int count, std::int32_t id) {
    return [count, id](dag::Context& ctx) {
      for (int k = 0; k < count; ++k) {
        Order order;
        order.interval = k;
        order.strategy_id = id;
        order.symbol_i = 0;
        order.symbol_j = 1;
        order.shares_i = 1.0;
        order.shares_j = -2.0;
        order.price_i = 10.0;
        order.price_j = 5.0;
        order.is_entry = 1;
        ctx.emit(0, OrderBatch{{order}}.pack());
      }
      StrategySummary summary;
      summary.strategy_id = id;
      summary.trades = static_cast<std::uint64_t>(count);
      summary.total_pnl = count * 1.5;
      ctx.emit(0, summary.pack());
    };
  };
  const int a = g.add_node("a", emit_orders(3, 1));
  const int b = g.add_node("b", emit_orders(2, 2));
  const int master = g.add_node("master", make_master(&report));
  g.connect(a, 0, master, 0);
  g.connect(b, 0, master, 1);
  g.run();

  EXPECT_EQ(report.orders, 5u);
  EXPECT_EQ(report.entries, 5u);
  EXPECT_EQ(report.trades, 5u);
  EXPECT_DOUBLE_EQ(report.total_pnl, 7.5);
  EXPECT_DOUBLE_EQ(report.net_shares[0], 5.0);
  EXPECT_DOUBLE_EQ(report.net_shares[1], -10.0);
  EXPECT_EQ(report.basket_count, 3u);  // intervals 0,1,2
  // Netting: intervals 0 and 1 carry orders from both strategies, same side,
  // so raw == netted there; no reduction anywhere (all same-signed).
  EXPECT_DOUBLE_EQ(report.raw_order_shares, report.netted_order_shares);
}

// The master's accounting recomputed from scratch over its order log with
// std::maps and a full walk of every symbol after each order.
struct MapOracle {
  std::map<std::uint32_t, double> net_shares;
  double raw = 0.0, netted = 0.0, peak_gross = 0.0;
  std::uint64_t baskets = 0, symbol_breaches = 0, gross_breaches = 0;

  MapOracle(const std::vector<Order>& log, const RiskConfig& risk) {
    std::map<std::int64_t, std::map<std::uint32_t, double>> flow;
    std::map<std::uint32_t, double> last_price;
    const auto leg = [&](const Order& o, std::uint32_t symbol, double shares,
                         double price) {
      net_shares[symbol] += shares;
      last_price[symbol] = price;
      raw += std::abs(shares);
      flow[o.interval][symbol] += shares;
      if (std::abs(net_shares[symbol]) > risk.max_symbol_shares) ++symbol_breaches;
    };
    for (const auto& o : log) {
      leg(o, o.symbol_i, o.shares_i, o.price_i);
      leg(o, o.symbol_j, o.shares_j, o.price_j);
      double gross = 0.0;
      for (const auto& [symbol, net] : net_shares)
        gross += std::abs(net) * last_price[symbol];
      peak_gross = std::max(peak_gross, gross);
      if (gross > risk.max_gross_notional) ++gross_breaches;
    }
    baskets = flow.size();
    for (const auto& [interval, symbols] : flow)
      for (const auto& [symbol, shares] : symbols) netted += std::abs(shares);
  }
};

TEST(MasterNode, DenseAccountingMatchesMapRecomputation) {
  // Three strategies each send a seeded stream of OrderBatches over 300
  // intervals on 40 symbols: random pairs, integer share deltas that drift
  // positions past the per-symbol limit, and a periodic full unwind so the
  // book goes flat and reopens.
  constexpr int kStrategies = 3;
  constexpr std::uint32_t kSymbolCount = 40;
  std::vector<std::vector<OrderBatch>> streams(kStrategies);
  for (int id = 0; id < kStrategies; ++id) {
    mm::Rng rng(100 + static_cast<std::uint64_t>(id));
    std::map<std::uint32_t, double> held;  // this strategy's net per symbol
    for (std::int64_t s = 0; s < 300; ++s) {
      OrderBatch batch;
      if (s % 75 == 74) {
        // Unwind everything this strategy holds, one order per symbol pair.
        std::vector<std::uint32_t> open;
        for (const auto& [symbol, net] : held)
          if (net != 0.0) open.push_back(symbol);
        for (std::size_t k = 0; k < open.size(); k += 2) {
          Order o;
          o.interval = s;
          o.strategy_id = id;
          o.symbol_i = open[k];
          o.symbol_j = k + 1 < open.size() ? open[k + 1] : (open[k] + 1) % kSymbolCount;
          o.shares_i = -held[o.symbol_i];
          o.shares_j = -held[o.symbol_j];
          o.price_i = rng.uniform(10.0, 100.0);
          o.price_j = rng.uniform(10.0, 100.0);
          held[o.symbol_i] += o.shares_i;
          held[o.symbol_j] += o.shares_j;
          batch.orders.push_back(o);
        }
      } else {
        const auto orders = rng.uniform_int(6);  // some intervals send nothing
        for (std::uint64_t k = 0; k < orders; ++k) {
          Order o;
          o.interval = s;
          o.strategy_id = id;
          o.symbol_i = static_cast<std::uint32_t>(rng.uniform_int(kSymbolCount - 1));
          const auto above = rng.uniform_int(kSymbolCount - 1 - o.symbol_i);
          o.symbol_j = o.symbol_i + 1 + static_cast<std::uint32_t>(above);
          o.shares_i = static_cast<double>(rng.uniform_int(300)) - 150.0;
          o.shares_j = static_cast<double>(rng.uniform_int(300)) - 140.0;
          o.price_i = rng.uniform(10.0, 100.0);
          o.price_j = rng.uniform(10.0, 100.0);
          o.is_entry = static_cast<std::uint8_t>(rng.uniform_int(2));
          held[o.symbol_i] += o.shares_i;
          held[o.symbol_j] += o.shares_j;
          batch.orders.push_back(o);
        }
      }
      if (!batch.orders.empty()) streams[static_cast<std::size_t>(id)].push_back(batch);
    }
  }

  RiskConfig risk;
  risk.max_symbol_shares = 600.0;
  risk.max_gross_notional = 400'000.0;
  MasterReport report;
  dag::Graph g;
  const int master = g.add_node("master", make_master(&report, risk));
  for (int id = 0; id < kStrategies; ++id) {
    const int src = g.add_node("s" + std::to_string(id), [&, id](dag::Context& ctx) {
      for (const auto& batch : streams[static_cast<std::size_t>(id)])
        ctx.emit(0, batch.pack());
    });
    g.connect(src, 0, master, id);
  }
  g.run();

  // The log holds every order once, each strategy's in the order it sent.
  std::size_t sent = 0;
  for (int id = 0; id < kStrategies; ++id) {
    std::vector<Order> mine;
    for (const auto& o : report.order_log)
      if (o.strategy_id == id) mine.push_back(o);
    std::size_t q = 0;
    for (const auto& batch : streams[static_cast<std::size_t>(id)]) {
      for (const auto& o : batch.orders) {
        ASSERT_LT(q, mine.size()) << "strategy " << id;
        const auto& got = mine[q];
        EXPECT_TRUE(got.interval == o.interval && got.symbol_i == o.symbol_i &&
                    got.symbol_j == o.symbol_j && got.shares_i == o.shares_i &&
                    got.shares_j == o.shares_j && got.price_i == o.price_i &&
                    got.price_j == o.price_j && got.is_entry == o.is_entry)
            << "strategy " << id << " order " << q;
        ++q;
      }
    }
    EXPECT_EQ(q, mine.size()) << "strategy " << id;
    sent += q;
  }
  ASSERT_EQ(report.order_log.size(), sent);
  EXPECT_EQ(report.orders, sent);

  const MapOracle oracle(report.order_log, risk);
  EXPECT_EQ(report.net_shares, oracle.net_shares);
  EXPECT_EQ(report.raw_order_shares, oracle.raw);
  EXPECT_EQ(report.netted_order_shares, oracle.netted);
  EXPECT_EQ(report.basket_count, oracle.baskets);
  EXPECT_EQ(report.symbol_limit_breaches, oracle.symbol_breaches);
  EXPECT_NEAR(report.peak_gross_notional, oracle.peak_gross, 1e-9 * oracle.peak_gross);
  EXPECT_EQ(report.gross_limit_breaches, oracle.gross_breaches);

  // The stream exercises every check on both sides of its limit.
  EXPECT_GT(oracle.symbol_breaches, 0u);
  EXPECT_GT(oracle.gross_breaches, 0u);
  EXPECT_LT(oracle.gross_breaches, report.orders);
  EXPECT_LT(oracle.netted, oracle.raw);
}

}  // namespace
}  // namespace mm::engine
