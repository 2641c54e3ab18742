#include "engine/components.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <thread>

#include "core/pair_book.hpp"
#include "dagflow/context.hpp"
#include "engine/messages.hpp"
#include "obs/heartbeat.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "marketdata/bars.hpp"
#include "marketdata/tickdb.hpp"
#include "stats/cluster.hpp"
#include "stats/corr_engine.hpp"

namespace mm::engine {
namespace {

void bump(StageStats* stats, std::uint64_t rec_in, std::uint64_t rec_out,
          std::uint64_t it_in, std::uint64_t it_out) {
  if (stats == nullptr) return;
  stats->records_in += rec_in;
  stats->records_out += rec_out;
  stats->items_in += it_in;
  stats->items_out += it_out;
}

// Sleep until the paced replay clock reaches `target_wall` — in chunks no
// longer than the heartbeat interval, beating between chunks, so a pacing
// collector reads as idle-but-alive to the monitor instead of going silent
// for the duration of a long sleep.
void paced_sleep_until(std::chrono::steady_clock::time_point target_wall) {
  obs::Pulse& pulse = obs::pulse_this_thread();
  const auto max_chunk = pulse.armed()
                             ? pulse.interval()
                             : std::chrono::nanoseconds{std::chrono::milliseconds{50}};
  while (true) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= target_wall) return;
    const auto remaining =
        std::chrono::duration_cast<std::chrono::nanoseconds>(target_wall - now);
    std::this_thread::sleep_for(remaining < max_chunk ? remaining : max_chunk);
    pulse.beat();
  }
}

void emit_quotes(dag::Context& ctx, const std::vector<md::Quote>& quotes,
                 std::size_t batch_size, StageStats* stats, double replay_speedup) {
  const bool paced = replay_speedup > 0.0 && !quotes.empty();
  const auto wall_start = std::chrono::steady_clock::now();
  const md::TimeMs day_start = paced ? quotes.front().ts_ms : 0;

  QuoteBatch batch;
  batch.quotes.reserve(batch_size);
  const auto flush = [&] {
    if (paced) {
      // Emit each batch when its FIRST quote's market time comes due on the
      // compressed clock; in-batch spread is below the pacing resolution.
      const double elapsed_market_ms =
          static_cast<double>(batch.quotes.front().ts_ms - day_start);
      paced_sleep_until(wall_start +
                        std::chrono::nanoseconds{static_cast<std::int64_t>(
                            elapsed_market_ms * 1e6 / replay_speedup)});
    }
    ctx.emit(0, batch.pack());
    bump(stats, 0, 1, 0, batch.quotes.size());
    batch.quotes.clear();
  };
  for (const auto& q : quotes) {
    batch.quotes.push_back(q);
    if (batch.quotes.size() == batch_size) flush();
  }
  if (!batch.quotes.empty()) flush();
}

// Per-stage step histogram, registered on the run's registry (null when the
// run records no metrics; ObsSpan treats a null histogram as "don't sample").
obs::Histogram* step_histogram(dag::Context& ctx, const char* name) {
  return ctx.metrics() != nullptr ? &ctx.metrics()->histogram(name) : nullptr;
}

}  // namespace

dag::NodeFn make_file_collector(std::vector<md::Quote> quotes, std::size_t batch_size,
                                StageStats* stats, double replay_speedup) {
  MM_ASSERT(batch_size > 0);
  return [quotes = std::move(quotes), batch_size, stats,
          replay_speedup](dag::Context& ctx) {
    emit_quotes(ctx, quotes, batch_size, stats, replay_speedup);
  };
}

dag::NodeFn make_db_collector(std::string tickdb_root, md::Date date,
                              std::size_t batch_size, StageStats* stats,
                              double replay_speedup) {
  MM_ASSERT(batch_size > 0);
  return [root = std::move(tickdb_root), date, batch_size, stats,
          replay_speedup](dag::Context& ctx) {
    auto db = md::TickDb::open(root);
    MM_ASSERT_MSG(db.has_value(), "db collector: cannot open tickdb");
    auto quotes = db->read_day(date);
    MM_ASSERT_MSG(quotes.has_value(), "db collector: cannot read day");
    emit_quotes(ctx, *quotes, batch_size, stats, replay_speedup);
  };
}

dag::NodeFn make_shared_collector(std::shared_ptr<const std::vector<md::Quote>> day,
                                  std::size_t batch_size, StageStats* stats,
                                  double replay_speedup) {
  MM_ASSERT(batch_size > 0);
  MM_ASSERT_MSG(day != nullptr, "shared collector needs a day");
  return [day = std::move(day), batch_size, stats,
          replay_speedup](dag::Context& ctx) {
    emit_quotes(ctx, *day, batch_size, stats, replay_speedup);
  };
}

dag::NodeFn make_cleaner(std::size_t symbols, md::CleanerConfig config,
                         StageStats* stats) {
  return [symbols, config, stats](dag::Context& ctx) {
    md::QuoteCleaner cleaner(symbols, config);
    while (auto msg = ctx.recv()) {
      mpi::Unpacker u(msg->bytes);
      MM_ASSERT(static_cast<RecordType>(u.get<std::uint8_t>()) ==
                RecordType::quote_batch);
      auto batch = QuoteBatch::unpack(u);
      const std::size_t in_count = batch.quotes.size();

      QuoteBatch out;
      out.quotes.reserve(batch.quotes.size());
      for (const auto& q : batch.quotes)
        if (cleaner.accept(q)) out.quotes.push_back(q);
      if (!out.quotes.empty()) {
        const std::size_t out_count = out.quotes.size();
        ctx.emit(0, out.pack());
        bump(stats, 1, 1, in_count, out_count);
      } else {
        bump(stats, 1, 0, in_count, 0);
      }
    }
  };
}

dag::NodeFn make_snapshot_stage(std::size_t symbols, md::Session session,
                                std::int64_t delta_s, std::vector<double> seed_prices,
                                StageStats* stats) {
  MM_ASSERT(seed_prices.size() == symbols);
  return [symbols, session, delta_s, seed = std::move(seed_prices),
          stats](dag::Context& ctx) {
    const std::int64_t smax = session.interval_count(delta_s);
    std::vector<double> last_bam = seed;
    std::vector<double> prev_prices = seed;
    std::int64_t next_emit = 0;  // first interval not yet snapshotted

    const auto emit_through = [&](std::int64_t limit) {
      // Emit snapshots for every interval strictly below `limit`.
      for (; next_emit < limit && next_emit < smax; ++next_emit) {
        Snapshot snap;
        snap.interval = next_emit;
        snap.prices = last_bam;
        if (next_emit > 0) {
          snap.returns.resize(symbols);
          for (std::size_t i = 0; i < symbols; ++i)
            snap.returns[i] = std::log(last_bam[i] / prev_prices[i]);
        }
        prev_prices = last_bam;
        ctx.emit(0, snap.pack());
        bump(stats, 0, 1, 0, 1);
      }
    };

    while (auto msg = ctx.recv()) {
      mpi::Unpacker u(msg->bytes);
      MM_ASSERT(static_cast<RecordType>(u.get<std::uint8_t>()) ==
                RecordType::quote_batch);
      const auto batch = QuoteBatch::unpack(u);
      bump(stats, 1, 0, batch.quotes.size(), 0);
      for (const auto& q : batch.quotes) {
        const std::int64_t s = session.interval_of(q.ts_ms, delta_s);
        if (s < 0 || q.symbol >= symbols) continue;
        // A quote in interval s means intervals < s are complete.
        emit_through(s);
        last_bam[q.symbol] = q.bam();
      }
    }
    // End of stream: flush the remaining intervals of the session.
    emit_through(smax);
  };
}

dag::GroupNodeFn make_correlation_stage(std::size_t symbols, std::int64_t corr_window,
                                        bool need_maronna,
                                        stats::MaronnaConfig maronna_config, int fan_out,
                                        StageStats* stats,
                                        std::chrono::milliseconds replica_deadline,
                                        stats::CorrStore* store, stats::CorrKey store_key,
                                        std::int64_t expected_frames) {
  MM_ASSERT(fan_out >= 1);
  return [symbols, corr_window, need_maronna, maronna_config, fan_out, stats,
          replica_deadline, store, store_key = std::move(store_key),
          expected_frames](dag::Context* ctx, mpi::Comm& group) {
    stats::CorrEngineConfig config;
    config.type = need_maronna ? stats::Ctype::maronna : stats::Ctype::pearson;
    config.window = static_cast<std::size_t>(corr_window);
    config.maronna = maronna_config;
    stats::ParallelCorrelationEngine engine(
        group, config, symbols, ctx != nullptr ? ctx->metrics() : nullptr,
        replica_deadline);
    if (!engine.leader()) {
      engine.serve();
      return;
    }

    // The lease is taken when the NODE runs (not at wiring time): concurrent
    // pipelines over the same key serialize here — one computes, the rest
    // block until the day is published, then replay.
    std::optional<stats::CorrStore::Lease> lease;
    if (store != nullptr) lease.emplace(store->acquire(store_key));

    if (lease && lease->hit()) {
      // Memoized day: replay the stored packed frames one-for-one against
      // the incoming snapshots. The bytes are exactly what a cold run would
      // emit, so every consumer downstream is bit-identical.
      const auto day = lease->data();  // keep alive across eviction
      std::size_t next = 0;
      while (auto msg = ctx->recv()) {
        MM_ASSERT(peek_type(msg->bytes) == RecordType::snapshot);
        bump(stats, 1, 0, 1, 0);
        MM_ASSERT_MSG(next < day->frames.size(),
                      "memoized day shorter than the snapshot stream");
        const auto& packed = day->frames[next++];
        for (int port = 0; port < fan_out; ++port) ctx->emit(port, packed);
        bump(stats, 0, static_cast<std::uint64_t>(fan_out), 0, 1);
      }
      engine.finish();
      return;
    }

    obs::Histogram* step_ns = step_histogram(*ctx, "engine.correlation.step_ns");
    stats::CorrDay recorded;
    if (lease && expected_frames > 0)
      recorded.frames.reserve(static_cast<std::size_t>(expected_frames));

    while (auto msg = ctx->recv()) {
      mpi::Unpacker u(msg->bytes);
      MM_ASSERT(static_cast<RecordType>(u.get<std::uint8_t>()) == RecordType::snapshot);
      auto snap = Snapshot::unpack(u);
      bump(stats, 1, 0, 1, 0);

      obs::ObsSpan step(ctx->ring(), "corr-step", step_ns);
      CorrFrame frame;
      frame.interval = snap.interval;
      frame.prices = std::move(snap.prices);
      // The opening snapshot carries no returns: nothing to push.
      if (!snap.returns.empty()) {
        const auto& vectors = engine.step(snap.returns);
        frame.valid = engine.ready() && snap.interval >= corr_window;
        if (frame.valid) {
          frame.pearson = vectors.pearson;
          frame.maronna = vectors.maronna;
        }
      }
      step.close();
      const auto packed = frame.pack();
      for (int port = 0; port < fan_out; ++port) ctx->emit(port, packed);
      if (lease) recorded.frames.push_back(packed);
      bump(stats, 0, static_cast<std::uint64_t>(fan_out), 0, 1);
    }
    engine.finish();
    if (stats != nullptr) stats->faults += engine.reshards();

    // Publish only a complete day: a run cut short by a fault upstream
    // produced fewer frames, and the lease destructor abandons it (handing
    // ownership to any blocked waiter).
    if (lease && expected_frames > 0 &&
        recorded.frames.size() == static_cast<std::size_t>(expected_frames))
      lease->publish(std::move(recorded));
  };
}

dag::NodeFn make_cluster_stage(std::size_t symbols, int target_clusters,
                               std::int64_t cadence, StageStats* stats) {
  MM_ASSERT(cadence >= 1);
  return [symbols, target_clusters, cadence, stats](dag::Context& ctx) {
    const auto pairs = stats::all_pairs(symbols);
    while (auto msg = ctx.recv()) {
      mpi::Unpacker u(msg->bytes);
      MM_ASSERT(static_cast<RecordType>(u.get<std::uint8_t>()) ==
                RecordType::corr_frame);
      const auto frame = CorrFrame::unpack(u);
      bump(stats, 1, 0, 1, 0);
      if (!frame.valid || frame.interval % cadence != 0) continue;

      stats::SymMatrix matrix(symbols, 0.0);
      matrix.fill_diagonal(1.0);
      for (std::size_t k = 0; k < pairs.size(); ++k)
        matrix.set(pairs[k].i, pairs[k].j, frame.pearson[k]);
      const auto clusters = stats::single_linkage_clusters(matrix, target_clusters);

      ClusterSnapshot snapshot;
      snapshot.interval = frame.interval;
      snapshot.cluster_count = clusters.cluster_count;
      snapshot.assignment.assign(clusters.assignment.begin(),
                                 clusters.assignment.end());
      ctx.emit(0, snapshot.pack());
      bump(stats, 0, 1, 0, 1);
    }
  };
}

dag::NodeFn make_strategy_stage(core::StrategyParams params,
                                std::vector<stats::PairIndex> pairs,
                                std::int32_t strategy_id, std::int64_t smax,
                                StageStats* stats) {
  return [params, pairs = std::move(pairs), strategy_id, smax,
          stats](dag::Context& ctx) {
    obs::Histogram* step_ns = step_histogram(ctx, "engine.strategy.step_ns");
    // Built on the first frame, which brings the universe size.
    std::optional<core::PairBook> book;
    // The frame's vectors list every pair in canonical all-pairs order. When
    // my pairs are exactly that list (as run_pipeline passes them), the book
    // reads a Pearson or Maronna vector in place; otherwise each of my pairs
    // is gathered from its canonical slot into `corr`, as is Combined.
    bool canonical = false;
    std::vector<std::size_t> frame_index;
    std::vector<double> corr;  // per-pair correlations, in my pair order
    CorrFrame frame;           // reused: unpacked into its vectors' storage
    OrderBatch batch;
    std::int64_t last_interval = -1;

    // The book's events as one batch: an entry order holds the position at
    // its fills, an exit order unwinds the closed trade at its exit fills.
    const auto emit_batch = [&](std::int64_t s) {
      batch.orders.clear();
      for (const auto& event : book->events()) {
        const auto& pair = book->pairs()[event.pair];
        Order order;
        order.interval = s;
        order.strategy_id = strategy_id;
        order.symbol_i = pair.i;
        order.symbol_j = pair.j;
        if (event.trade == core::PairBook::kOpened) {
          const auto& position = book->position(event.pair);
          order.shares_i = position.shares_i;
          order.shares_j = position.shares_j;
          order.price_i = position.entry_price_i;
          order.price_j = position.entry_price_j;
          order.is_entry = 1;
        } else {
          const auto& trade = book->trades()[event.trade];
          order.shares_i = -trade.shares_i;
          order.shares_j = -trade.shares_j;
          order.price_i = trade.exit_price_i;
          order.price_j = trade.exit_price_j;
        }
        batch.orders.push_back(order);
      }
      if (batch.orders.empty()) return;
      ctx.emit(0, batch.pack());
      bump(stats, 0, 1, 0, batch.orders.size());
    };

    while (auto msg = ctx.recv()) {
      mpi::Unpacker u(msg->bytes);
      MM_ASSERT(static_cast<RecordType>(u.get<std::uint8_t>()) ==
                RecordType::corr_frame);
      CorrFrame::unpack_into(u, frame);
      bump(stats, 1, 0, 1, 0);
      last_interval = frame.interval;

      if (!book) {
        const std::size_t n = frame.prices.size();
        canonical = pairs.size() == n * (n - 1) / 2;
        for (std::size_t k = 0; k < pairs.size(); ++k) {
          const auto& pair = pairs[k];
          MM_ASSERT_MSG(pair.i < pair.j && pair.j < n, "pair not in universe");
          frame_index.push_back(stats::pair_slot(n, pair.i, pair.j));
          canonical = canonical && frame_index[k] == k;
        }
        corr.resize(pairs.size());
        book.emplace(params, smax, n, pairs);
      }

      obs::ObsSpan step(ctx.ring(), "strategy-step", step_ns);
      const double* book_corr = nullptr;
      if (frame.valid) {
        switch (params.ctype) {
          case stats::Ctype::pearson:
          case stats::Ctype::maronna: {
            const auto& vec =
                params.ctype == stats::Ctype::pearson ? frame.pearson : frame.maronna;
            if (canonical) {
              MM_ASSERT_MSG(vec.size() == pairs.size(), "frame vector of the wrong size");
              book_corr = vec.data();
            } else {
              for (std::size_t k = 0; k < pairs.size(); ++k) corr[k] = vec[frame_index[k]];
              book_corr = corr.data();
            }
            break;
          }
          case stats::Ctype::combined:
            for (std::size_t k = 0; k < pairs.size(); ++k) {
              const std::size_t slot = frame_index[k];
              corr[k] = stats::combine(frame.pearson[slot], frame.maronna[slot]);
            }
            book_corr = corr.data();
            break;
        }
      }
      book->step(frame.interval, frame.prices.data(), book_corr, frame.valid);
      emit_batch(frame.interval);
    }

    // End of day: flatten and summarize, pair by pair.
    StrategySummary summary;
    summary.strategy_id = strategy_id;
    if (book) {
      book->finish();
      emit_batch(last_interval);
      for (const auto& t : book->trades_by_pair()) {
        ++summary.trades;
        summary.total_pnl += t.pnl;
        summary.trade_returns.push_back(t.trade_return);
      }
    }
    ctx.emit(0, summary.pack());
    bump(stats, 0, 1, 0, 0);
  };
}

dag::NodeFn make_master(MasterReport* report, RiskConfig risk, StageStats* stats) {
  MM_ASSERT(report != nullptr);
  return [report, risk, stats](dag::Context& ctx) {
    // Dense per-symbol positions, grown to the largest symbol seen.
    std::vector<double> net, last_price;
    // Σ |net| × last price over all symbols, kept current from the two legs
    // each order touches; reset exactly whenever every position is flat, so
    // rounding never carries across flat points.
    double gross = 0.0;
    std::size_t open_symbols = 0;
    // Per-(interval, symbol) signed share flow for netting accounting; one
    // dense row per interval.
    std::map<std::int64_t, std::vector<double>> basket_flow;

    const auto apply_leg = [&](std::vector<double>& flow, std::uint32_t symbol,
                               double shares, double price) {
      if (symbol >= net.size()) {
        net.resize(symbol + 1, 0.0);
        last_price.resize(symbol + 1, 0.0);
      }
      if (symbol >= flow.size()) flow.resize(symbol + 1, 0.0);
      double& position = net[symbol];
      const double before = std::abs(position) * last_price[symbol];
      if (position != 0.0) --open_symbols;
      position += shares;
      if (position != 0.0) ++open_symbols;
      last_price[symbol] = price;
      gross += std::abs(position) * price - before;
      report->raw_order_shares += std::abs(shares);
      flow[symbol] += shares;
      if (risk.max_symbol_shares > 0.0 && std::abs(position) > risk.max_symbol_shares)
        ++report->symbol_limit_breaches;
    };

    const auto apply_order = [&](const Order& order) {
      ++report->orders;
      report->order_log.push_back(order);
      if (order.is_entry) ++report->entries;
      else ++report->exits;
      auto& flow = basket_flow[order.interval];
      apply_leg(flow, order.symbol_i, order.shares_i, order.price_i);
      apply_leg(flow, order.symbol_j, order.shares_j, order.price_j);
      if (open_symbols == 0) gross = 0.0;

      report->peak_gross_notional = std::max(report->peak_gross_notional, gross);
      if (risk.max_gross_notional > 0.0 && gross > risk.max_gross_notional)
        ++report->gross_limit_breaches;
    };

    while (auto msg = ctx.recv()) {
      mpi::Unpacker u(msg->bytes);
      const auto type = static_cast<RecordType>(u.get<std::uint8_t>());
      if (type == RecordType::order_batch) {
        const auto batch = OrderBatch::unpack(u);
        bump(stats, 1, 0, batch.orders.size(), 0);
        for (const auto& order : batch.orders) apply_order(order);
      } else if (type == RecordType::strategy_summary) {
        bump(stats, 1, 0, 0, 0);
        auto summary = StrategySummary::unpack(u);
        report->trades += summary.trades;
        report->total_pnl += summary.total_pnl;
        report->trade_returns.insert(report->trade_returns.end(),
                                     summary.trade_returns.begin(),
                                     summary.trade_returns.end());
        report->strategy_summaries.push_back(std::move(summary));
      } else {
        MM_ASSERT_MSG(false, "master: unexpected record type");
      }
    }
    report->basket_count = basket_flow.size();
    // Arrival order across workers is a race; sort for deterministic reports.
    std::sort(report->strategy_summaries.begin(), report->strategy_summaries.end(),
              [](const StrategySummary& a, const StrategySummary& b) {
                return a.strategy_id < b.strategy_id;
              });
    // Symbols an interval never traded hold +0.0 and add nothing.
    for (const auto& [interval, row] : basket_flow)
      for (const double shares : row) report->netted_order_shares += std::abs(shares);
    // Order prices are positive, so a traded symbol has a last price > 0.
    for (std::uint32_t symbol = 0; symbol < net.size(); ++symbol)
      if (last_price[symbol] > 0.0)
        report->net_shares.emplace_hint(report->net_shares.end(), symbol, net[symbol]);

    // Degradation section: which strategy streams ended in a failure marker
    // (or silence) rather than a clean end-of-day.
    report->degraded = ctx.upstream_failed();
    report->failed_strategies = ctx.failed_input_ports();
  };
}

}  // namespace mm::engine
