// mm::obs telemetry tests: exact concurrent aggregation of the sharded
// counters/histograms, the documented bucket boundary rule, registry
// snapshots, and the trace ring -> Chrome JSON path (round-tripped through a
// real JSON parser, not substring checks).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace mm::obs {
namespace {

// --- minimal JSON parser ----------------------------------------------------
// Enough of RFC 8259 to round-trip what mm::obs emits (objects, arrays,
// strings with \" escapes, numbers, literals). parse() demands that the whole
// input is one valid value.

struct Json {
  enum class Type { null, boolean, number, string, array, object };
  Type type = Type::null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> items;                          // array
  std::vector<std::pair<std::string, Json>> fields; // object, in input order

  const Json* get(const std::string& key) const {
    for (const auto& [k, v] : fields)
      if (k == key) return &v;
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : text_(std::move(text)) {}

  bool parse(Json* out) {
    pos_ = 0;
    skip();
    if (!value(out)) return false;
    skip();
    return pos_ == text_.size();
  }

 private:
  void skip() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  bool string_token(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          default: return false;  // \u etc. never emitted by mm::obs
        }
      }
      out->push_back(c);
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool value(Json* out) {
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return object(out);
    if (c == '[') return array(out);
    if (c == '"') {
      out->type = Json::Type::string;
      return string_token(&out->string);
    }
    if (c == 't') { out->type = Json::Type::boolean; out->boolean = true;  return literal("true"); }
    if (c == 'f') { out->type = Json::Type::boolean; out->boolean = false; return literal("false"); }
    if (c == 'n') { out->type = Json::Type::null; return literal("null"); }
    // Number.
    char* end = nullptr;
    out->type = Json::Type::number;
    out->number = std::strtod(text_.c_str() + pos_, &end);
    if (end == text_.c_str() + pos_) return false;
    pos_ = static_cast<std::size_t>(end - text_.c_str());
    return true;
  }

  bool object(Json* out) {
    out->type = Json::Type::object;
    ++pos_;  // '{'
    skip();
    if (pos_ < text_.size() && text_[pos_] == '}') { ++pos_; return true; }
    while (true) {
      std::string key;
      skip();
      if (!string_token(&key)) return false;
      skip();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      skip();
      Json v;
      if (!value(&v)) return false;
      out->fields.emplace_back(std::move(key), std::move(v));
      skip();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') { ++pos_; continue; }
      if (text_[pos_] == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array(Json* out) {
    out->type = Json::Type::array;
    ++pos_;  // '['
    skip();
    if (pos_ < text_.size() && text_[pos_] == ']') { ++pos_; return true; }
    while (true) {
      Json v;
      skip();
      if (!value(&v)) return false;
      out->items.push_back(std::move(v));
      skip();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') { ++pos_; continue; }
      if (text_[pos_] == ']') { ++pos_; return true; }
      return false;
    }
  }

  std::string text_;
  std::size_t pos_ = 0;
};

// --- counters ---------------------------------------------------------------

TEST(ObsCounter, ConcurrentIncrementsSumExactly) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add();
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(ObsCounter, AddWithArgument) {
  Counter counter;
  counter.add(5);
  counter.add();  // default 1
  counter.add(7);
  EXPECT_EQ(counter.value(), 13u);
}

// --- gauges -----------------------------------------------------------------

TEST(ObsGauge, SetAddAndWatermark) {
  Gauge gauge;
  gauge.set(10);
  gauge.add(-3);
  gauge.max_of(5);  // below current 7: no effect
  EXPECT_EQ(gauge.value(), 7);
  gauge.max_of(40);
  EXPECT_EQ(gauge.value(), 40);
  gauge.reset();
  EXPECT_EQ(gauge.value(), 0);
}

TEST(ObsGauge, ConcurrentMaxOfKeepsHighWatermark) {
  Gauge gauge;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&gauge, t] {
      for (std::int64_t v = 0; v <= 1000; ++v) gauge.max_of(v * (t + 1));
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(gauge.value(), 1000 * kThreads);
}

// --- histograms -------------------------------------------------------------

// The documented boundary rule: lower bound inclusive, upper bound exclusive.
// With bounds {10, 20}: bucket0 = v < 10, bucket1 = 10 <= v < 20,
// bucket2 (overflow) = v >= 20.
TEST(ObsHistogram, BucketBoundariesInclusiveLowerExclusiveUpper) {
  Histogram hist(std::vector<std::int64_t>{10, 20});
  hist.record(9);   // bucket 0 (just below the first bound)
  hist.record(10);  // bucket 1 (exactly on a bound -> higher bucket)
  hist.record(19);  // bucket 1
  hist.record(20);  // overflow (exactly on the last bound)
  hist.record(25);  // overflow
  ASSERT_EQ(hist.bucket_count(), 3u);
  const auto buckets = hist.bucket_values();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 2u);
  EXPECT_EQ(buckets[2], 2u);
  EXPECT_EQ(hist.count(), 5u);
  EXPECT_EQ(hist.sum(), 9 + 10 + 19 + 20 + 25);
}

TEST(ObsHistogram, ConcurrentRecordsAggregateExactly) {
  // Samples 0..39 against the default ns bounds all land in bucket 0; the
  // per-thread pattern makes count and sum exactly predictable.
  Histogram hist(default_latency_bounds_ns());
  constexpr int kThreads = 8;
  constexpr std::int64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&hist] {
      for (std::int64_t i = 0; i < kPerThread; ++i) hist.record(i % 40);
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  // sum over one thread: kPerThread/40 full cycles of 0+..+39 = 780.
  const std::int64_t cycle_sum = 39 * 40 / 2;
  EXPECT_EQ(hist.sum(), kThreads * (kPerThread / 40) * cycle_sum);
  const auto buckets = hist.bucket_values();
  EXPECT_EQ(buckets.front(), hist.count());
  hist.reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.sum(), 0);
}

// --- registry and snapshots -------------------------------------------------

TEST(ObsRegistry, HandlesAreStableAndSnapshotAggregates) {
  Registry registry;
  Counter& sent = registry.counter("edge.sent");
  Counter& recv = registry.counter("edge.recv");
  Gauge& depth = registry.gauge("queue.depth");
  Histogram& lat = registry.histogram("latency_ns");

  // Re-registration returns the same object.
  EXPECT_EQ(&sent, &registry.counter("edge.sent"));
  EXPECT_EQ(&depth, &registry.gauge("queue.depth"));
  EXPECT_EQ(&lat, &registry.histogram("latency_ns"));

  sent.add(3);
  recv.add(2);
  depth.max_of(17);
  lat.record(1500);

  const Snapshot snap = registry.snapshot();
  ASSERT_EQ(snap.metrics.size(), 4u);
  // Name-sorted within each kind; find() works regardless.
  const MetricValue* s = snap.find("edge.sent");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind, MetricKind::counter);
  EXPECT_EQ(s->value, 3);
  EXPECT_EQ(snap.counter_total("edge."), 5);
  const MetricValue* d = snap.find("queue.depth");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->value, 17);
  const MetricValue* h = snap.find("latency_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_EQ(h->sum, 1500);
  ASSERT_EQ(h->buckets.size(), h->bounds.size() + 1);
  EXPECT_FALSE(snap.to_string().empty());

  registry.reset();
  const Snapshot zeroed = registry.snapshot();
  EXPECT_EQ(zeroed.counter_total("edge."), 0);
  EXPECT_EQ(zeroed.find("latency_ns")->count, 0u);
}

TEST(ObsSnapshot, JsonRoundTripsThroughParser) {
  Registry registry;
  registry.counter("a.count").add(41);
  registry.gauge("b.level").set(-7);
  registry.histogram("c.lat_ns").record(2000);

  Json doc;
  ASSERT_TRUE(JsonParser(registry.snapshot().to_json()).parse(&doc));
  const Json* metrics = doc.get("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->type, Json::Type::array);
  ASSERT_EQ(metrics->items.size(), 3u);
  bool saw_counter = false;
  for (const auto& m : metrics->items) {
    ASSERT_EQ(m.type, Json::Type::object);
    ASSERT_NE(m.get("name"), nullptr);
    if (m.get("name")->string == "a.count") {
      saw_counter = true;
      EXPECT_EQ(m.get("kind")->string, "counter");
      EXPECT_EQ(m.get("value")->number, 41.0);
    }
  }
  EXPECT_TRUE(saw_counter);
}

// --- quantiles and deltas --------------------------------------------------

MetricValue make_histogram_value(std::vector<std::int64_t> bounds,
                                 std::vector<std::uint64_t> buckets) {
  MetricValue m;
  m.name = "h";
  m.kind = MetricKind::histogram;
  m.bounds = std::move(bounds);
  m.buckets = std::move(buckets);
  for (const auto b : m.buckets) m.count += b;
  return m;
}

TEST(ObsQuantile, InterpolatesLinearlyInsideBuckets) {
  // 10 samples in [0, 100), 10 in [100, 200).
  const MetricValue m = make_histogram_value({100, 200, 400}, {10, 10, 0, 0});
  EXPECT_DOUBLE_EQ(m.quantile(0.25), 50.0);
  EXPECT_DOUBLE_EQ(m.quantile(0.5), 100.0);
  EXPECT_DOUBLE_EQ(m.quantile(0.75), 150.0);
  EXPECT_DOUBLE_EQ(m.quantile(1.0), 200.0);
  // Out-of-range q clamps.
  EXPECT_DOUBLE_EQ(m.quantile(-1.0), m.quantile(0.0));
  EXPECT_DOUBLE_EQ(m.quantile(2.0), m.quantile(1.0));
}

TEST(ObsQuantile, OverflowSamplesArePinnedToLastBound) {
  const MetricValue m = make_histogram_value({100, 200, 400}, {0, 0, 0, 5});
  EXPECT_DOUBLE_EQ(m.quantile(0.5), 400.0);
  EXPECT_DOUBLE_EQ(m.quantile(0.99), 400.0);
}

TEST(ObsQuantile, DegenerateShapes) {
  MetricValue empty;
  empty.kind = MetricKind::histogram;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);

  MetricValue no_bounds;  // falls back to the mean
  no_bounds.kind = MetricKind::histogram;
  no_bounds.count = 4;
  no_bounds.sum = 100;
  EXPECT_DOUBLE_EQ(no_bounds.quantile(0.95), 25.0);
}

TEST(ObsSnapshot, DeltaSubtractsCountersKeepsGauges) {
  Snapshot base, now;
  MetricValue c;
  c.name = "sent";
  c.kind = MetricKind::counter;
  c.value = 100;
  base.metrics.push_back(c);
  c.value = 250;
  now.metrics.push_back(c);
  MetricValue g;
  g.name = "depth";
  g.kind = MetricKind::gauge;
  g.value = 7;
  base.metrics.push_back(g);
  g.value = 3;
  now.metrics.push_back(g);
  MetricValue fresh;  // absent from base: passes through
  fresh.name = "new.counter";
  fresh.kind = MetricKind::counter;
  fresh.value = 5;
  now.metrics.push_back(fresh);

  const Snapshot d = now.delta(base);
  EXPECT_EQ(d.find("sent")->value, 150);
  EXPECT_EQ(d.find("depth")->value, 3);  // gauges are levels, not totals
  EXPECT_EQ(d.find("new.counter")->value, 5);
}

TEST(ObsSnapshot, DeltaSubtractsHistogramBucketsAndSurvivesReset) {
  Snapshot base, now;
  MetricValue h1 = make_histogram_value({100, 200}, {5, 5, 0});
  h1.name = "lat";
  h1.sum = 500;
  base.metrics.push_back(h1);
  MetricValue h2 = make_histogram_value({100, 200}, {5, 9, 1});
  h2.name = "lat";
  h2.sum = 1700;
  now.metrics.push_back(h2);

  const Snapshot d = now.delta(base);
  const MetricValue* m = d.find("lat");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->count, 5u);
  EXPECT_EQ(m->sum, 1200);
  EXPECT_EQ(m->buckets[0], 0u);
  EXPECT_EQ(m->buckets[1], 4u);
  EXPECT_EQ(m->buckets[2], 1u);

  // Registry reset between snapshots (base count exceeds current): the delta
  // degrades to the current values instead of underflowing.
  const Snapshot reversed = base.delta(now);
  EXPECT_EQ(reversed.find("lat")->count, 10u);
}

TEST(ObsSnapshot, CounterSuffixTotalSumsMatchingCounters) {
  Snapshot snap;
  for (const char* name : {"dag.a.frames_in", "dag.b.frames_in", "dag.a.frames_out"}) {
    MetricValue c;
    c.name = name;
    c.kind = MetricKind::counter;
    c.value = 10;
    snap.metrics.push_back(c);
  }
  EXPECT_EQ(snap.counter_suffix_total(".frames_in"), 20);
  EXPECT_EQ(snap.counter_suffix_total(".frames_out"), 10);
  EXPECT_EQ(snap.counter_suffix_total(".absent"), 0);
}

TEST(ObsSnapshot, HistogramRendersQuantilesInTextAndJson) {
  Registry registry;
  Histogram& h = registry.histogram("step_ns", {100, 200, 400});
  for (int i = 0; i < 10; ++i) h.record(50);
  const Snapshot snap = registry.snapshot();
  EXPECT_NE(snap.to_string().find("p95="), std::string::npos);
  Json doc;
  ASSERT_TRUE(JsonParser(snap.to_json()).parse(&doc));
  const Json& m = doc.get("metrics")->items.at(0);
  ASSERT_NE(m.get("p95"), nullptr);
  EXPECT_GT(m.get("p95")->number, 0.0);
  EXPECT_LE(m.get("p95")->number, 100.0);
}

// --- trace ring and Chrome JSON --------------------------------------------

TEST(ObsTrace, ChromeJsonRoundTripsThroughParser) {
  TraceSink sink;
  TraceRing& ring = sink.ring(3, "rank 3");
  ring.set_tid(2);
  sink.set_thread_name(3, 2, "cleaner");
  { ObsSpan span(&ring, "work"); }
  ring.instant("tick");

  Json doc;
  ASSERT_TRUE(JsonParser(sink.chrome_json()).parse(&doc));
  const Json* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type, Json::Type::array);
  EXPECT_EQ(sink.total_events(), 2u);
  bool saw_process = false, saw_thread = false, saw_span = false, saw_instant = false;
  for (const auto& e : events->items) {
    ASSERT_EQ(e.type, Json::Type::object);
    const std::string& ph = e.get("ph")->string;
    const std::string& name = e.get("name")->string;
    if (ph == "M" && name == "process_name") {
      saw_process = true;
      EXPECT_EQ(e.get("pid")->number, 3.0);
      EXPECT_EQ(e.get("args")->get("name")->string, "rank 3");
    } else if (ph == "M" && name == "thread_name") {
      saw_thread = true;
      EXPECT_EQ(e.get("tid")->number, 2.0);
      EXPECT_EQ(e.get("args")->get("name")->string, "cleaner");
    } else if (ph == "X") {
      saw_span = true;
      EXPECT_EQ(name, "work");
      EXPECT_EQ(e.get("pid")->number, 3.0);
      EXPECT_EQ(e.get("tid")->number, 2.0);
      EXPECT_GE(e.get("dur")->number, 0.0);
    } else if (ph == "i") {
      saw_instant = true;
      EXPECT_EQ(name, "tick");
    }
  }
  EXPECT_TRUE(saw_process);
  EXPECT_TRUE(saw_thread);
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);
}

TEST(ObsTrace, WriteFileProducesParsableJson) {
  TraceSink sink;
  TraceRing& ring = sink.ring(0, "rank 0");
  { ObsSpan span(&ring, "day"); }
  const std::string path = "test_obs_tmp.trace.json";
  ASSERT_TRUE(sink.write_file(path).has_value());

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string body;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) body.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());

  Json doc;
  ASSERT_TRUE(JsonParser(body).parse(&doc));
  ASSERT_NE(doc.get("traceEvents"), nullptr);
}

TEST(ObsTrace, FullRingDropsNewestAndCounts) {
  TraceSink sink(/*ring_capacity=*/4);
  TraceRing& ring = sink.ring(0, "rank 0");
  for (int i = 0; i < 10; ++i) ring.instant("e");
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  EXPECT_EQ(sink.total_dropped(), 6u);
}

TEST(ObsTrace, SpanRecordsHistogramAndCloseIsIdempotent) {
  TraceSink sink;
  TraceRing& ring = sink.ring(0, "rank 0");
  Histogram hist(default_latency_bounds_ns());
  {
    ObsSpan span(&ring, "step", &hist);
    span.close();
    span.close();  // second close: no double record
  }                // destructor after close: no record either
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_EQ(ring.size(), 1u);
}

TEST(ObsTrace, NullTargetsAreNoOps) {
  ObsSpan span(nullptr, "free");
  ObsSpan both(nullptr, "free", nullptr);
  both.close();
  // Nothing to assert beyond "does not crash / read the clock".
}

}  // namespace
}  // namespace mm::obs
