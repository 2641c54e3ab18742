// perfbench: end-to-end benchmark of the Fig. 1 pipeline and the backtest
// service, with per-layer attribution.
//
//   perfbench --workload <day_wide_pearson|day_robust_maronna|svc_sweep>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//
// Every input is generated from --seed. Every result is checked against a
// reference computed once per process before the timed region: the direct
// backtest (core::compute_market_corr_series + core::run_pair_day) for the
// day workloads, a cold single-tenant service run of each job spec for
// svc_sweep. The reference runs in a forked child so its memory never shows
// in peak_rss_mb, and so does each pipeline day of the day workloads.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same work
// twice, first untraced and then with the benchmark's own in-memory spans
// around every public call it makes, and prints the per-layer metrics of
// the traced half plus the difference between the halves (the tracing
// overhead). The program's own TraceSink and job traces stay off in both.
// All times are steady_clock wall time.
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The exit code is 0 only when every output matched its reference.
#include <malloc.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/backtester.hpp"
#include "core/params.hpp"
#include "engine/pipeline.hpp"
#include "marketdata/bars.hpp"
#include "marketdata/cleaner.hpp"
#include "marketdata/generator.hpp"
#include "obs/registry.hpp"
#include "stats/simd.hpp"
#include "stats/sym_matrix.hpp"
#include "svc/service.hpp"
#include "wire/feed.hpp"
#include "wire/quote_source.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using mm::md::Quote;
using Day = std::shared_ptr<const std::vector<Quote>>;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- spans -----------------------------------------------------------------
// In-memory spans around the benchmark's calls into the program: name,
// start, end, causing span and run id. Recorded only in a --trace 1 run,
// written out at exit.

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  std::string run;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::uint64_t open(std::string name, std::string run, std::uint64_t parent) {
    std::lock_guard<std::mutex> lock(mutex_);
    SpanRecord r;
    r.id = spans_.size() + 1;
    r.parent = parent;
    r.name = std::move(name);
    r.run = std::move(run);
    r.start_ns = now_ns();
    spans_.push_back(std::move(r));
    return spans_.back().id;
  }
  void close(std::uint64_t id) {
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end_ns = t;
  }

  // Self time of every span: its duration minus the union of its children's
  // intervals (children of one parent may overlap when they run on several
  // client threads).
  std::vector<std::int64_t> self_ns() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
        spans_.size() + 1);
    for (const auto& s : spans_) children[s.parent].emplace_back(s.start_ns, s.end_ns);
    std::vector<std::int64_t> self(spans_.size());
    for (const auto& s : spans_) {
      auto& kids = children[s.id];
      std::sort(kids.begin(), kids.end());
      std::int64_t covered = 0, cursor = s.start_ns;
      for (const auto& [a, b] : kids) {
        const std::int64_t lo = std::max(a, cursor), hi = std::min(b, s.end_ns);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
      self[s.id - 1] = (s.end_ns - s.start_ns) - covered;
    }
    return self;
  }

  // Mean self time (ms) per span of `name`; 0 when none was recorded.
  double mean_self_ms(const std::string& name) const {
    const auto self = self_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    double total = 0.0;
    std::size_t n = 0;
    for (const auto& s : spans_)
      if (s.name == name) {
        total += static_cast<double>(self[s.id - 1]) / 1e6;
        ++n;
      }
    return n > 0 ? total / static_cast<double>(n) : 0.0;
  }

  // Mean duration (s) of the spans named `name`; 0 when none was recorded.
  double mean_seconds(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    double total = 0.0;
    std::size_t n = 0;
    for (const auto& s : spans_)
      if (s.name == name) {
        total += static_cast<double>(s.end_ns - s.start_ns) / 1e9;
        ++n;
      }
    return n > 0 ? total / static_cast<double>(n) : 0.0;
  }

  bool write(const std::string& path) const {
    const auto self = self_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      out << "  {\"id\": " << s.id << ", \"parent\": " << s.parent << ", \"name\": \""
          << s.name << "\", \"run\": \"" << s.run << "\", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << ", \"self_ns\": " << self[i] << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

SpanLog g_spans;
thread_local std::uint64_t t_parent_span = 0;

// RAII span; a no-op unless the log is enabled.
class Span {
 public:
  explicit Span(const char* name, std::string run = {}) {
    if (!g_spans.enabled()) return;
    id_ = g_spans.open(name, std::move(run), t_parent_span);
    saved_parent_ = t_parent_span;
    t_parent_span = id_;
  }
  ~Span() {
    if (id_ == 0) return;
    g_spans.close(id_);
    t_parent_span = saved_parent_;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint64_t id_ = 0;
  std::uint64_t saved_parent_ = 0;
};

// Spans whose self time the traced run reports.
const char* const kSpanNames[] = {"SyntheticDay", "run_pipeline", "feed.start",
                                  "fetch_day",    "svc.start",    "svc.submit",
                                  "svc.wait",     "svc.stop"};

// --- small helpers -----------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double total = 0.0;
  for (const double x : v) total += x;
  return total / static_cast<double>(v.size());
}

// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

std::string hexf(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", x);
  return buf;
}

bool same_quotes(const std::vector<Quote>& a, const std::vector<Quote>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Quote& x = a[i];
    const Quote& y = b[i];
    if (x.ts_ms != y.ts_ms || x.symbol != y.symbol || x.bid != y.bid || x.ask != y.ask ||
        x.bid_size != y.bid_size || x.ask_size != y.ask_size)
      return false;
  }
  return true;
}

// Run `fn` in a forked child and return the string it produced. Called only
// while this process has a single thread, so the child may start its own.
std::string run_in_child(const std::function<std::string()>& fn) {
  std::fflush(stdout);
  std::fflush(stderr);
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    // Die with the parent, so a killed run leaves no child behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(1);
    ::close(fds[0]);
    int code = 0;
    try {
      const std::string out = fn();
      std::size_t off = 0;
      while (off < out.size()) {
        const ssize_t n = ::write(fds[1], out.data() + off, out.size() - off);
        if (n <= 0) {
          code = 3;
          break;
        }
        off += static_cast<std::size_t>(n);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: child failed: %s\n", e.what());
      code = 2;
    }
    ::close(fds[1]);
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string out;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("child process failed");
  return out;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

// Share of attempted operations that succeeded and matched their reference
// (1 - failed_frac; a failed, refused or degraded run counts against it).
double ok_frac(const Outcome& out) {
  return out.attempted > 0
             ? static_cast<double>(out.attempted - out.failed) / static_cast<double>(out.attempted)
             : 0.0;
}

// Per-layer figures from one program registry snapshot, summed into `out`.
// dag node names carry a worker suffix ("strategy-1"); nodes with the same
// stem are summed, so "strategy" covers every worker.
void add_layer_metrics(const mm::obs::Snapshot& snap, std::map<std::string, double>& out) {
  for (const auto& m : snap.metrics) {
    const std::string& name = m.name;
    if (name.rfind("dag.", 0) == 0) {
      const auto dot = name.rfind('.');
      std::string node = name.substr(4, dot - 4);
      const std::string field = name.substr(dot + 1);
      const auto dash = node.find_first_of("-#");
      if (dash != std::string::npos) node.resize(dash);
      const std::string stem = "dagflow." + node + ".";
      if (field == "wall_ns") out[stem + "wall_ms"] += static_cast<double>(m.sum) / 1e6;
      else if (field == "credit_stall_ns") out[stem + "stall_ms"] += static_cast<double>(m.value) / 1e6;
      else if (field == "frames_in" || field == "frames_out")
        out[stem + field] += static_cast<double>(m.value);
    } else if (name == "engine.strategy.step_ns" || name == "engine.correlation.step_ns") {
      const std::string stem = name.substr(0, name.size() - 3);
      out[stem + "_ms"] += static_cast<double>(m.sum) / 1e6;
      out[stem + "s"] += static_cast<double>(m.count);
    } else if (name == "mpmini.send.bytes" || name == "mpmini.send.messages") {
      out[name] += static_cast<double>(m.value);
    } else if (name == "mpmini.ring.depth_peak" || name == "mpmini.mailbox.queue_peak") {
      out[name] = std::max(out[name], static_cast<double>(m.value));
    }
  }
}

// The full per-layer metric set, in BENCHMARK.json order. `sums` holds
// totals over `work` units (pipeline days or service jobs); counts and times
// are reported per unit, ratios and peaks as they are.
std::vector<Metric> layer_metrics(std::map<std::string, double> sums, double work) {
  const auto per = [&](const std::string& k) { return work > 0 ? sums[k] / work : 0.0; };
  std::vector<Metric> out;
  const auto add = [&](const std::string& name, double v, const char* unit) {
    out.push_back({name, v, unit});
  };
  add("engine.strategy.step_ms", per("engine.strategy.step_ms"), "ms");
  add("engine.strategy.steps", per("engine.strategy.steps"), "count");
  add("engine.strategy.outside_step_ms",
      per("dagflow.strategy.wall_ms") - per("engine.strategy.step_ms") -
          per("dagflow.strategy.stall_ms"),
      "ms");
  add("engine.correlation.step_ms", per("engine.correlation.step_ms"), "ms");
  add("engine.correlation.steps", per("engine.correlation.steps"), "count");
  add("engine.orders", per("engine.orders"), "count");
  add("engine.trades", per("engine.trades"), "count");
  for (const char* node :
       {"collector", "cleaner", "snapshot", "correlation", "strategy", "master"}) {
    const std::string stem = std::string("dagflow.") + node + ".";
    add(stem + "wall_ms", per(stem + "wall_ms"), "ms");
    add(stem + "stall_ms", per(stem + "stall_ms"), "ms");
    add(stem + "frames_in", per(stem + "frames_in"), "count");
    add(stem + "frames_out", per(stem + "frames_out"), "count");
  }
  add("mpmini.send.bytes", per("mpmini.send.bytes"), "bytes");
  add("mpmini.send.messages", per("mpmini.send.messages"), "count");
  add("mpmini.ring.depth_peak", sums["mpmini.ring.depth_peak"], "count");
  add("mpmini.mailbox.queue_peak", sums["mpmini.mailbox.queue_peak"], "count");
  add("stats.corr_store.hit_ratio", sums["stats.corr_store.hit_ratio"], "ratio");
  add("stats.corr_store.computes", per("stats.corr_store.computes"), "count");
  add("marketdata.day_cache.hit_ratio", sums["marketdata.day_cache.hit_ratio"], "ratio");
  add("marketdata.day_cache.loads", per("marketdata.day_cache.loads"), "count");
  add("marketdata.generate_s", g_spans.mean_seconds("SyntheticDay"), "s");
  add("marketdata.quotes", sums["marketdata.quotes"], "count");
  add("wire.fetch_day_ms", sums["wire.fetch_day_ms"], "ms");
  add("wire.quotes_per_s", sums["wire.quotes_per_s"], "quotes/s");
  for (const char* stage : {"queue", "cache", "compute", "exchange"}) {
    const std::string name = std::string("svc.") + stage + "_ms";
    add(name, per(name), "ms");
  }
  add("bench.trace_overhead_ms", sums["bench.trace_overhead_ms"], "ms");
  for (const char* span : kSpanNames)
    add(std::string("span.") + span + ".self_ms", g_spans.mean_self_ms(span), "ms");
  return out;
}

// Serve `days` (key -> quotes) from a fresh TcpFeedServer, fetch each back
// over a WireQuoteSource session and check the bytes; records
// wire.fetch_day_ms and wire.quotes_per_s.
bool wire_round_trip(const std::map<std::string, Day>& days,
                     std::map<std::string, double>& sums) {
  bool ok = true;
  std::unique_ptr<mm::wire::TcpFeedServer> feed;
  {
    Span span("feed.start");
    feed = std::make_unique<mm::wire::TcpFeedServer>(
        [&days](const std::string& key) -> mm::Expected<std::vector<Quote>> {
          const auto it = days.find(key);
          if (it == days.end())
            return mm::Error(mm::Errc::not_found, "no day " + key);
          return *it->second;
        });
    if (!feed->start(0).has_value()) return false;
  }
  double fetch_s = 0.0;
  std::size_t quotes = 0;
  for (const auto& [key, day] : days) {
    const auto t0 = Clock::now();
    mm::Expected<std::vector<Quote>> got = [&] {
      Span span("fetch_day", key);
      return mm::wire::fetch_day("127.0.0.1", feed->port(), key);
    }();
    fetch_s += seconds_between(t0, Clock::now());
    if (!got.has_value() || !same_quotes(got.value(), *day)) {
      std::fprintf(stderr, "perfbench: wire fetch of %s did not return the day\n",
                   key.c_str());
      ok = false;
      continue;
    }
    quotes += day->size();
  }
  feed->stop();
  sums["wire.fetch_day_ms"] = fetch_s * 1e3 / static_cast<double>(days.size());
  sums["wire.quotes_per_s"] = fetch_s > 0 ? static_cast<double>(quotes) / fetch_s : 0.0;
  return ok;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

constexpr int kSetupRepeats = 3;
constexpr double kQuoteRate = 0.3;  // obs_demo's generator setting

// ============================================================================
// Day workloads: one synthetic day replayed through engine::run_pipeline.

struct DayWorkload {
  std::size_t symbols = 0;
  int correlation_replicas = 1;
  std::vector<mm::core::StrategyParams> strategies;
};

DayWorkload day_workload(const std::string& name) {
  using mm::core::ParamGrid;
  using mm::core::StrategyParams;
  DayWorkload w;
  if (name == "day_wide_pearson") {
    // obs_demo's two strategies: the first two grid entries with M = 100,
    // both Pearson at ∆s = 30 s.
    w.symbols = 250;
    for (const auto& p : ParamGrid().all()) {
      if (p.corr_window != 100) continue;
      w.strategies.push_back(p);
      if (w.strategies.size() == 2) break;
    }
  } else {
    w.symbols = 61;
    w.correlation_replicas = 2;
    StrategyParams maronna = ParamGrid::base();
    maronna.ctype = mm::stats::Ctype::maronna;
    StrategyParams combined = ParamGrid::base();
    combined.ctype = mm::stats::Ctype::combined;
    w.strategies = {maronna, combined};
  }
  return w;
}

// The canonical text of one day's outcome; the pipeline run and the direct
// backtest must produce the same bytes.
std::string day_summary(const std::vector<std::uint64_t>& trades,
                        const std::vector<double>& pnl, std::uint64_t orders,
                        std::uint64_t total_trades, double total_pnl) {
  std::string s;
  char line[160];
  for (std::size_t w = 0; w < trades.size(); ++w) {
    std::snprintf(line, sizeof(line), "strategy=%zu trades=%llu pnl=%s\n", w,
                  static_cast<unsigned long long>(trades[w]), hexf(pnl[w]).c_str());
    s += line;
  }
  std::snprintf(line, sizeof(line), "orders=%llu trades=%llu pnl=%s\n",
                static_cast<unsigned long long>(orders),
                static_cast<unsigned long long>(total_trades), hexf(total_pnl).c_str());
  return s + line;
}

std::string pipeline_summary(const mm::engine::PipelineResult& r) {
  std::vector<std::uint64_t> trades;
  std::vector<double> pnl;
  for (const auto& s : r.master.strategy_summaries) {
    trades.push_back(s.trades);
    pnl.push_back(s.total_pnl);
  }
  return day_summary(trades, pnl, r.master.orders, r.master.trades, r.master.total_pnl);
}

// The direct backtest of the pipeline's day: the same cleaning, BAM sampling
// with the snapshot stage's base-price seeding, the integrated correlation
// series and one PairStrategy per pair, summed in the strategy stage's order.
// Pairs are split into contiguous shards over a few threads; each shard's
// series and trades are independent of the split.
std::string direct_backtest(const DayWorkload& w, const mm::md::Universe& universe,
                            const std::vector<Quote>& quotes) {
  const std::size_t n = w.symbols;
  const auto& params0 = w.strategies.front();
  mm::md::QuoteCleaner cleaner(n, mm::md::CleanerConfig{});
  const auto cleaned = cleaner.clean(quotes);
  const mm::md::Session session;
  auto bam = mm::md::sample_bam_series(cleaned, n, session, params0.delta_s);
  {
    std::vector<bool> seen(n, false);
    std::size_t qi = 0;
    const auto smax = static_cast<std::size_t>(session.interval_count(params0.delta_s));
    for (std::size_t s = 0; s < smax; ++s) {
      const auto end = session.interval_end(static_cast<std::int64_t>(s), params0.delta_s);
      for (; qi < cleaned.size() && cleaned[qi].ts_ms < end; ++qi)
        seen[cleaned[qi].symbol] = true;
      for (std::size_t i = 0; i < n; ++i)
        if (!seen[i]) bam[i][s] = universe.base_price[i];
    }
  }
  bool need_maronna = false;
  for (const auto& p : w.strategies)
    if (p.ctype != mm::stats::Ctype::pearson) need_maronna = true;

  const auto pairs = mm::stats::all_pairs(n);
  constexpr std::size_t kShards = 4;
  // pnl[shard][strategy] = every trade's pnl in pair order.
  std::vector<std::vector<std::vector<double>>> pnl(
      kShards, std::vector<std::vector<double>>(w.strategies.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kShards; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t lo = pairs.size() * t / kShards;
      const std::size_t hi = pairs.size() * (t + 1) / kShards;
      const std::vector<mm::stats::PairIndex> shard(pairs.begin() + lo, pairs.begin() + hi);
      const auto series = mm::core::compute_market_corr_series(
          bam, params0.corr_window, need_maronna, mm::stats::MaronnaConfig{}, shard);
      for (std::size_t s = 0; s < w.strategies.size(); ++s)
        for (std::size_t k = 0; k < shard.size(); ++k)
          for (const auto& trade : mm::core::run_pair_day(
                   w.strategies[s], bam[shard[k].i], bam[shard[k].j], series, k))
            pnl[t][s].push_back(trade.pnl);
    });
  }
  for (auto& t : threads) t.join();

  std::vector<std::uint64_t> trades(w.strategies.size(), 0);
  std::vector<double> totals(w.strategies.size(), 0.0);
  for (std::size_t s = 0; s < w.strategies.size(); ++s)
    for (std::size_t t = 0; t < kShards; ++t)
      for (const double x : pnl[t][s]) {
        ++trades[s];
        totals[s] += x;
      }
  // Every trade is one entry and one exit order; the master adds the
  // strategies' totals onto 0.0 in arrival order, which for two strategies
  // is the same sum either way.
  std::uint64_t all_trades = 0;
  double all_pnl = 0.0;
  for (std::size_t s = 0; s < w.strategies.size(); ++s) {
    all_trades += trades[s];
    all_pnl += totals[s];
  }
  return day_summary(trades, totals, 2 * all_trades, all_trades, all_pnl);
}

// One pipeline day, run in a forked child so every day starts from the same
// process state and the child's peak RSS is that day's alone.
struct DayRun {
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
  bool degraded = false;
  std::uint64_t quotes_in = 0;
  std::string summary;                  // pipeline_summary()
  std::map<std::string, double> layer;  // add_layer_metrics() + order counts
};

DayRun run_day_in_child(const mm::engine::PipelineConfig& cfg,
                        const mm::md::Universe& universe) {
  const std::string text = run_in_child([&] {
    const auto t0 = Clock::now();
    const auto result = mm::engine::run_pipeline(cfg, universe, {});
    const double wall_s = seconds_between(t0, Clock::now());
    std::map<std::string, double> layer;
    add_layer_metrics(result.metrics, layer);
    layer["engine.orders"] = static_cast<double>(result.master.orders);
    layer["engine.trades"] = static_cast<double>(result.master.trades);
    std::string out = "wall_s " + hexf(wall_s) + "\npeak_rss_mb " + hexf(peak_rss_mb()) +
                      "\ndegraded " + (result.degraded ? "1" : "0") + "\nquotes_in " +
                      std::to_string(result.quotes_in) + "\n";
    for (const auto& [name, value] : layer) out += "layer " + name + " " + hexf(value) + "\n";
    return out + "summary\n" + pipeline_summary(result);
  });
  DayRun run;
  const auto split = text.find("summary\n");
  if (split == std::string::npos) throw std::runtime_error("day child printed no summary");
  run.summary = text.substr(split + 8);
  std::istringstream in(text.substr(0, split));
  for (std::string key; in >> key;) {
    std::string value;
    if (key == "layer") {
      std::string name;
      in >> name >> value;
      run.layer[name] = std::strtod(value.c_str(), nullptr);
      continue;
    }
    in >> value;
    if (key == "wall_s") run.wall_s = std::strtod(value.c_str(), nullptr);
    else if (key == "peak_rss_mb") run.peak_rss_mb = std::strtod(value.c_str(), nullptr);
    else if (key == "degraded") run.degraded = value == "1";
    else if (key == "quotes_in") run.quotes_in = std::strtoull(value.c_str(), nullptr, 10);
  }
  return run;
}

Outcome run_day_workload(const Args& args) {
  const DayWorkload w = day_workload(args.workload);
  mm::md::GeneratorConfig gen;
  gen.seed = args.seed;
  gen.quote_rate = kQuoteRate;

  // Set-up: universe and day generation, repeated; the last day is used.
  std::vector<double> setup_s;
  std::unique_ptr<mm::md::Universe> universe;
  Day day;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    day.reset();
    universe.reset();
    const auto t0 = Clock::now();
    {
      Span span("SyntheticDay", "setup-" + std::to_string(rep));
      universe = std::make_unique<mm::md::Universe>(mm::md::make_universe(w.symbols));
      const mm::md::SyntheticDay synthetic(*universe, gen, 0);
      day = std::make_shared<const std::vector<Quote>>(synthetic.quotes());
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // Hand the generator's freed memory back, so each day's child starts from
  // the day and the universe alone.
  ::malloc_trim(0);

  const auto ref_t0 = Clock::now();
  const std::string reference =
      run_in_child([&] { return direct_backtest(w, *universe, *day); });
  std::fprintf(stderr, "perfbench: direct backtest reference in %.2f s\n",
               seconds_between(ref_t0, Clock::now()));

  mm::engine::PipelineConfig cfg;
  cfg.symbols = w.symbols;
  cfg.strategies = w.strategies;
  cfg.correlation_replicas = w.correlation_replicas;
  cfg.day = day;

  Outcome out;
  // Runs whole days for about `budget` seconds: at least one, and another
  // only while at least half of it fits in the budget.
  const auto run_days = [&](double budget, const std::function<void(const DayRun&)>& sink) {
    const auto t_start = Clock::now();
    for (int i = 0;; ++i) {
      DayRun run;
      ++out.attempted;
      try {
        Span span("run_pipeline", "day-" + std::to_string(i));
        run = run_day_in_child(cfg, *universe);
      } catch (const std::exception& e) {
        // A crashed day is a broken program: count it and stop.
        ++out.failed;
        std::fprintf(stderr, "perfbench: day %d: %s\n", i, e.what());
        return;
      }
      std::fprintf(stderr, "perfbench: day %d: %.3f s, peak %.1f MB\n", i, run.wall_s,
                   run.peak_rss_mb);
      if (run.degraded || run.quotes_in != day->size() || run.summary != reference) {
        ++out.failed;
        std::fprintf(stderr, "perfbench: day %d mismatch%s\nexpected:\n%sgot:\n%s", i,
                     run.degraded ? " (degraded)" : "", reference.c_str(),
                     run.summary.c_str());
      }
      sink(run);
      if (seconds_between(t_start, Clock::now()) + run.wall_s / 2 >= budget) break;
    }
  };

  if (!args.trace) {
    std::vector<double> walls, qps, rss;
    run_days(args.seconds, [&](const DayRun& r) {
      walls.push_back(r.wall_s);
      rss.push_back(r.peak_rss_mb);
      qps.push_back(static_cast<double>(day->size()) / r.wall_s);
    });
    out.metrics = {
        {"quotes_per_s", median(qps), "quotes/s"},
        {"peak_rss_mb", median(rss), "MB"},
        {"setup_s", median(setup_s), "s"},
        {"jobs_per_s", 1.0 / median(walls), "jobs/s"},
        {"job_latency_p50_ms", median(walls) * 1e3, "ms"},
        {"job_latency_p90_ms", quantile(walls, 0.9) * 1e3, "ms"},
        {"ok_frac", ok_frac(out), "ratio"},
    };
    return out;
  }

  // Traced run: an untraced half, then a traced half over the same day; the
  // per-layer figures are per-day means of the traced half.
  std::vector<double> untraced_walls, traced_walls;
  std::map<std::string, double> sums;
  g_spans.set_enabled(false);
  run_days(args.seconds / 2, [&](const DayRun& r) { untraced_walls.push_back(r.wall_s); });
  g_spans.set_enabled(true);
  {
    Span phase("traced-half");
    run_days(args.seconds / 2, [&](const DayRun& r) {
      traced_walls.push_back(r.wall_s);
      for (const auto& [name, value] : r.layer)
        sums[name] = name.ends_with("_peak") ? std::max(sums[name], value)
                                             : sums[name] + value;
    });
  }
  {
    Span phase("wire-check");
    ++out.attempted;
    const std::map<std::string, Day> days = {
        {args.workload + "/" + std::to_string(args.seed), day}};
    if (!wire_round_trip(days, sums)) ++out.failed;
  }
  sums["marketdata.quotes"] = static_cast<double>(day->size());
  sums["bench.trace_overhead_ms"] = (mean(traced_walls) - mean(untraced_walls)) * 1e3;
  out.metrics = layer_metrics(sums, static_cast<double>(traced_walls.size()));
  return out;
}

// ============================================================================
// svc_sweep: a BacktestService fed by an in-process TcpFeedServer, driven by
// two tenants in a closed loop.

constexpr std::size_t kSvcSymbols = 16;
// The day pool: a few hot days every tenant keeps re-sweeping, and a
// rotation of cold days, one of which every fourth job asks for.
constexpr int kHotDays = 4;
constexpr int kColdDays = 8;
constexpr int kPoolDays = kHotDays + kColdDays;
constexpr int kColdEvery = 4;
constexpr int kTenants = 2;
// Byte budgets: a day is about 5.2 MB of quotes and 2.4 MB of correlation
// frames (two keys). Both caches hold the hot days plus a few cold ones, so
// hot jobs hit once warm while a cold day has always been evicted before
// its tenant comes back to it: the hit ratio stays near 0.7, a
// job's latency median lies among memoized jobs and its 90th percentile
// among cold Maronna computes.
constexpr std::size_t kDayCacheBytes = 40u << 20;
constexpr std::size_t kCorrStoreBytes = 20u << 20;

// 2 Pearson paramsets at (30 s, M = 100) and a Maronna and a Combined one at
// (30 s, M = 50): two units, one Pearson-only and one that estimates Maronna.
std::vector<mm::core::StrategyParams> svc_paramsets() {
  using mm::core::ParamGrid;
  auto pearson_a = ParamGrid::base();
  auto pearson_b = ParamGrid::base();
  pearson_b.divergence = 0.0003;
  auto maronna = ParamGrid::base();
  maronna.corr_window = 50;
  maronna.ctype = mm::stats::Ctype::maronna;
  auto combined = maronna;
  combined.ctype = mm::stats::Ctype::combined;
  return {pearson_a, pearson_b, maronna, combined};
}

mm::svc::JobSpec svc_spec(std::uint64_t seed, int day, const std::string& tenant) {
  mm::svc::JobSpec spec;
  spec.tenant = tenant;
  spec.symbols = kSvcSymbols;
  spec.seed = seed;
  spec.day = day;
  spec.paramsets = svc_paramsets();
  return spec;
}

// Canonical text of a job's per-paramset outcomes.
std::string job_summary(const mm::svc::JobResult& r) {
  std::string s;
  char line[160];
  for (const auto& p : r.paramsets) {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the return bits
    for (const double x : p.trade_returns) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &x, sizeof(bits));
      h = (h ^ bits) * 1099511628211ull;
    }
    std::snprintf(line, sizeof(line), "p=%zu trades=%llu pnl=%s returns=%016llx\n", p.index,
                  static_cast<unsigned long long>(p.trades), hexf(p.total_pnl).c_str(),
                  static_cast<unsigned long long>(h));
    s += line;
  }
  return s;
}

// Cold single-tenant reference: a fresh service with in-process day
// generation runs each pool spec once. Every pool day is distinct, so no
// unit hits a cache.
std::string svc_reference(std::uint64_t seed) {
  mm::svc::ServiceConfig config;
  config.workers = 2;
  config.job_traces = false;
  config.quote_rate = kQuoteRate;
  mm::svc::BacktestService service(config);
  if (!service.start().has_value()) throw std::runtime_error("reference service start");
  std::vector<std::string> ids;
  for (int d = 0; d < kPoolDays; ++d) {
    auto id = service.submit(svc_spec(seed, d, "reference"));
    if (!id.has_value()) throw std::runtime_error("reference job refused");
    ids.push_back(id.value());
  }
  std::string out;
  for (const auto& id : ids) {
    const auto job = service.find(id);
    if (!service.wait(id, 120000) || job->state.load() != mm::svc::JobState::done)
      throw std::runtime_error("reference job did not finish: " + id);
    std::lock_guard<std::mutex> lock(job->mutex);
    out += job_summary(job->result) + "--\n";
  }
  service.stop();
  return out;
}

std::vector<std::string> split_reference(const std::string& text) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  for (std::size_t end; (end = text.find("--\n", pos)) != std::string::npos; pos = end + 3)
    out.push_back(text.substr(pos, end - pos));
  return out;
}

struct SvcPlant {
  std::map<std::string, Day> days;  // day key -> quotes
  std::size_t quotes = 0;
  std::unique_ptr<mm::wire::TcpFeedServer> feed;
  std::unique_ptr<mm::svc::BacktestService> service;
};

std::unique_ptr<mm::svc::BacktestService> start_service(std::uint16_t feed_port) {
  Span span("svc.start");
  mm::svc::ServiceConfig config;
  config.workers = 2;
  config.job_traces = false;
  config.day_cache_bytes = kDayCacheBytes;
  config.corr_store_bytes = kCorrStoreBytes;
  config.feed_port = feed_port;
  auto service = std::make_unique<mm::svc::BacktestService>(config);
  if (!service->start().has_value()) throw std::runtime_error("service start failed");
  return service;
}

void stop_service(mm::svc::BacktestService& service) {
  Span span("svc.stop");
  service.stop();
}

// Set-up: generate the pool days, start the feed over them, start the
// service pointed at the feed.
std::unique_ptr<SvcPlant> svc_setup(std::uint64_t seed, int rep) {
  Span setup_span("setup", "setup-" + std::to_string(rep));
  auto plant = std::make_unique<SvcPlant>();
  const auto universe = mm::md::make_universe(kSvcSymbols);
  mm::md::GeneratorConfig gen;
  gen.seed = seed;
  gen.quote_rate = kQuoteRate;
  for (int d = 0; d < kPoolDays; ++d) {
    Span span("SyntheticDay", "day-" + std::to_string(d));
    const mm::md::SyntheticDay synthetic(universe, gen, d);
    auto quotes = std::make_shared<const std::vector<Quote>>(synthetic.quotes());
    plant->quotes += quotes->size();
    plant->days[svc_spec(seed, d, "").day_key()] = std::move(quotes);
  }
  {
    Span span("feed.start");
    plant->feed = std::make_unique<mm::wire::TcpFeedServer>(
        [days = plant->days](const std::string& key) -> mm::Expected<std::vector<Quote>> {
          const auto it = days.find(key);
          if (it == days.end()) return mm::Error(mm::Errc::not_found, "no day " + key);
          return *it->second;
        });
    if (!plant->feed->start(0).has_value()) throw std::runtime_error("feed start failed");
  }
  plant->service = start_service(plant->feed->port());
  return plant;
}

struct JobSample {
  double latency_s = 0.0;
  Clock::time_point done;
  std::size_t quotes = 0;  // quotes replayed: units x day size
  mm::svc::JobResult result;
};

// Closed loop: each tenant submits its next job when the previous one is
// terminal, until `deadline` (or, when `jobs_per_tenant` > 0, exactly that
// many jobs). Every kColdEvery-th job of a tenant takes the next day of the
// tenant's own share of the cold rotation, which comes round again only
// after every other cold day has passed through the caches; the other jobs
// pick a hot day from a seeded per-tenant stream.
std::vector<JobSample> drive_tenants(SvcPlant& plant, std::uint64_t seed,
                                     const std::vector<std::string>& reference,
                                     Clock::time_point deadline, int jobs_per_tenant,
                                     Outcome& out) {
  std::mutex mutex;
  std::vector<JobSample> samples;
  const std::uint64_t parent = t_parent_span;
  std::vector<std::thread> tenants;
  for (int t = 0; t < kTenants; ++t) {
    tenants.emplace_back([&, t] {
      t_parent_span = parent;
      const std::string tenant = std::string("tenant-") + static_cast<char>('a' + t);
      std::mt19937_64 rng(seed * 1000003u + static_cast<std::uint64_t>(t));
      for (int i = 0; jobs_per_tenant > 0 ? i < jobs_per_tenant : Clock::now() < deadline;
           ++i) {
        const int d = i % kColdEvery == kColdEvery - 1
                          ? kHotDays + (t + kTenants * (i / kColdEvery)) % kColdDays
                          : static_cast<int>(rng() % kHotDays);
        JobSample sample;
        bool ok = false;
        const auto t0 = Clock::now();
        try {
          Span job_span("job", tenant + "/" + std::to_string(i));
          mm::Expected<std::string> id = [&] {
            Span span("svc.submit");
            return plant.service->submit(svc_spec(seed, d, tenant));
          }();
          if (id.has_value()) {
            bool finished = false;
            {
              Span span("svc.wait", id.value());
              finished = plant.service->wait(id.value(), 60000);
            }
            const auto job = plant.service->find(id.value());
            if (finished && job->state.load() == mm::svc::JobState::done) {
              std::lock_guard<std::mutex> lock(job->mutex);
              sample.result = job->result;
              ok = job_summary(sample.result) == reference[static_cast<std::size_t>(d)];
              if (!ok)
                std::fprintf(stderr, "perfbench: job %s (day %d) mismatch\n",
                             id.value().c_str(), d);
            }
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: tenant %s: %s\n", tenant.c_str(), e.what());
        }
        sample.done = Clock::now();
        sample.latency_s = seconds_between(t0, sample.done);
        const auto key = svc_spec(seed, d, "").day_key();
        sample.quotes = static_cast<std::size_t>(sample.result.units) *
                        plant.days.at(key)->size();
        std::lock_guard<std::mutex> lock(mutex);
        ++out.attempted;
        if (!ok) ++out.failed;
        else samples.push_back(std::move(sample));
      }
    });
  }
  for (auto& t : tenants) t.join();
  return samples;
}

Outcome run_svc_workload(const Args& args) {
  const auto ref_t0 = Clock::now();
  const auto reference = split_reference(run_in_child([&] { return svc_reference(args.seed); }));
  std::fprintf(stderr, "perfbench: cold service reference in %.2f s\n",
               seconds_between(ref_t0, Clock::now()));
  if (reference.size() != kPoolDays) throw std::runtime_error("short reference");

  std::vector<double> setup_s;
  std::unique_ptr<SvcPlant> plant;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (plant) {
      plant->service->stop();
      plant->feed->stop();
      plant.reset();
    }
    const auto t0 = Clock::now();
    plant = svc_setup(args.seed, rep);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  Outcome out;
  if (!args.trace) {
    const auto t_start = Clock::now();
    const auto deadline = t_start + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(args.seconds));
    const auto samples = drive_tenants(*plant, args.seed, reference, deadline, 0, out);
    Clock::time_point last = t_start;
    std::vector<double> latencies;
    double quotes = 0.0;
    for (const auto& s : samples) {
      last = std::max(last, s.done);
      latencies.push_back(s.latency_s * 1e3);
      quotes += static_cast<double>(s.quotes);
    }
    const double elapsed = seconds_between(t_start, last);
    const auto store = plant->service->corr_store().stats();
    std::fprintf(stderr,
                 "perfbench: %zu jobs in %.2f s; latency ms p10 %.1f p25 %.1f p50 %.1f "
                 "p75 %.1f p90 %.1f; corr store %llu hits / %llu misses\n",
                 samples.size(), elapsed, quantile(latencies, 0.1),
                 quantile(latencies, 0.25), quantile(latencies, 0.5),
                 quantile(latencies, 0.75), quantile(latencies, 0.9),
                 static_cast<unsigned long long>(store.hits),
                 static_cast<unsigned long long>(store.misses));
    plant->service->stop();
    plant->feed->stop();
    out.metrics = {
        {"quotes_per_s", elapsed > 0 ? quotes / elapsed : 0.0, "quotes/s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"setup_s", median(setup_s), "s"},
        {"jobs_per_s", elapsed > 0 ? static_cast<double>(samples.size()) / elapsed : 0.0,
         "jobs/s"},
        {"job_latency_p50_ms", quantile(latencies, 0.5), "ms"},
        {"job_latency_p90_ms", quantile(latencies, 0.9), "ms"},
        {"ok_frac", ok_frac(out), "ratio"},
    };
    return out;
  }

  // Traced run: the same fixed job list twice, each on a fresh service over
  // the same feed; the first untraced, the second traced.
  const int jobs_per_tenant = std::max(4, static_cast<int>(args.seconds));
  const auto no_deadline = Clock::time_point::max();
  plant->service->stop();
  g_spans.set_enabled(false);
  const auto a0 = Clock::now();
  plant->service = start_service(plant->feed->port());
  drive_tenants(*plant, args.seed, reference, no_deadline, jobs_per_tenant, out);
  stop_service(*plant->service);
  const double untraced_s = seconds_between(a0, Clock::now());

  g_spans.set_enabled(true);
  std::map<std::string, double> sums;
  std::vector<JobSample> samples;
  double traced_s = 0.0;
  {
    Span phase("traced-half");
    const auto b0 = Clock::now();
    plant->service = start_service(plant->feed->port());
    samples = drive_tenants(*plant, args.seed, reference, no_deadline, jobs_per_tenant, out);
    stop_service(*plant->service);
    traced_s = seconds_between(b0, Clock::now());
  }
  add_layer_metrics(plant->service->registry().snapshot(), sums);
  const auto store = plant->service->corr_store().stats();
  const auto cache = plant->service->day_cache().stats();
  sums["stats.corr_store.hit_ratio"] =
      static_cast<double>(store.hits) / static_cast<double>(std::max<std::uint64_t>(1, store.hits + store.misses));
  sums["stats.corr_store.computes"] = static_cast<double>(store.computes);
  sums["marketdata.day_cache.hit_ratio"] =
      static_cast<double>(cache.hits) / static_cast<double>(std::max<std::uint64_t>(1, cache.hits + cache.misses));
  sums["marketdata.day_cache.loads"] = static_cast<double>(cache.misses);
  for (const auto& s : samples) {
    sums["engine.orders"] += static_cast<double>(s.result.orders);
    sums["engine.trades"] += static_cast<double>(s.result.trades);
    for (const auto& stage : s.result.latency)
      sums["svc." + stage.stage + "_ms"] += static_cast<double>(stage.total_ns) / 1e6;
  }
  {
    Span phase("wire-check");
    ++out.attempted;
    if (!wire_round_trip(plant->days, sums)) ++out.failed;
  }
  plant->feed->stop();
  const double jobs = static_cast<double>(kTenants * jobs_per_tenant);
  sums["marketdata.quotes"] = static_cast<double>(plant->quotes);
  sums["bench.trace_overhead_ms"] = (traced_s - untraced_s) * 1e3 / jobs;
  out.metrics = layer_metrics(sums, jobs);
  return out;
}

// ============================================================================

void print_build_record() {
  std::printf("build: {\"build_type\": \"%s\", \"mm_obs_enabled\": %d, \"simd_level\": \"%s\", "
              "\"avx2_compiled\": %s}\n",
              PERFBENCH_BUILD_TYPE, MM_OBS_ENABLED,
              mm::stats::simd::level_name(mm::stats::simd::active_level()),
              mm::stats::simd::avx2_compiled() ? "true" : "false");
}

void print_result(const Outcome& out) {
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") args.seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--spans") args.spans_path = value;
    else return false;
  }
  return (argc % 2 == 1) && args.seconds > 0 &&
         (args.workload == "day_wide_pearson" || args.workload == "day_robust_maronna" ||
          args.workload == "svc_sweep");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <day_wide_pearson|day_robust_maronna|"
                 "svc_sweep> --seed N --seconds S --trace 0|1 [--spans PATH]\n");
    return 2;
  }
  g_spans.set_enabled(args.trace);
  print_build_record();
  Outcome out;
  try {
    out = args.workload == "svc_sweep" ? run_svc_workload(args) : run_day_workload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (args.trace && !args.spans_path.empty() && !g_spans.write(args.spans_path))
    std::fprintf(stderr, "perfbench: could not write %s\n", args.spans_path.c_str());
  print_result(out);
  return out.failed == 0 && out.attempted > 0 ? 0 : 1;
}
