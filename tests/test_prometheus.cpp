// Prometheus exposition + HTTP listener tests.
//
// The exposition checks run a real (small) text-format parser over rendered
// pages: every line must be HELP, TYPE or a well-formed sample, names must
// match the Prometheus grammar, histogram buckets must be cumulative with
// ascending le bounds and +Inf == _count.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/pipeline.hpp"
#include "marketdata/generator.hpp"
#include "obs/http.hpp"
#include "obs/prometheus.hpp"
#include "obs/registry.hpp"

namespace mm::obs {
namespace {

// --- a small Prometheus text-format (0.0.4) parser -------------------------

struct PromSample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0.0;
};

struct PromPage {
  std::map<std::string, std::string> types;  // family -> counter|gauge|histogram
  std::set<std::string> helped;
  std::vector<PromSample> samples;

  const PromSample* find(const std::string& name,
                         const std::string& label = {},
                         const std::string& value = {}) const {
    for (const auto& s : samples) {
      if (s.name != name) continue;
      if (label.empty()) return &s;
      const auto it = s.labels.find(label);
      if (it != s.labels.end() && it->second == value) return &s;
    }
    return nullptr;
  }
};

bool valid_name(const std::string& name) {
  if (name.empty()) return false;
  const auto start = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  };
  if (!start(name.front())) return false;
  for (const char c : name)
    if (!start(c) && !std::isdigit(static_cast<unsigned char>(c))) return false;
  return true;
}

// Parses one page; returns false with a diagnostic on the first bad line.
bool parse_prom(const std::string& text, PromPage* page, std::string* error) {
  std::size_t pos = 0;
  int line_no = 0;
  while (pos < text.size()) {
    ++line_no;
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      *error = "line " + std::to_string(line_no) + ": missing trailing newline";
      return false;
    }
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;

    const auto fail = [&](const std::string& why) {
      *error = "line " + std::to_string(line_no) + ": " + why + ": " + line;
      return false;
    };

    if (line[0] == '#') {
      std::size_t sp1 = line.find(' ');
      std::size_t sp2 = line.find(' ', sp1 + 1);
      std::size_t sp3 = line.find(' ', sp2 + 1);
      if (sp2 == std::string::npos) return fail("bare comment");
      const std::string kind = line.substr(sp1 + 1, sp2 - sp1 - 1);
      const std::string name =
          sp3 == std::string::npos ? line.substr(sp2 + 1)
                                   : line.substr(sp2 + 1, sp3 - sp2 - 1);
      if (!valid_name(name)) return fail("bad family name");
      if (kind == "HELP") {
        page->helped.insert(name);
      } else if (kind == "TYPE") {
        if (sp3 == std::string::npos) return fail("TYPE without a type");
        const std::string type = line.substr(sp3 + 1);
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped")
          return fail("unknown TYPE");
        page->types[name] = type;
      } else {
        return fail("unknown comment kind");
      }
      continue;
    }

    PromSample sample;
    std::size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ')
      sample.name.push_back(line[i++]);
    if (!valid_name(sample.name)) return fail("bad metric name");
    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        std::string key;
        while (i < line.size() && line[i] != '=') key.push_back(line[i++]);
        if (!valid_name(key)) return fail("bad label name");
        if (i + 1 >= line.size() || line[i] != '=' || line[i + 1] != '"')
          return fail("label value must be quoted");
        i += 2;
        std::string value;
        while (i < line.size() && line[i] != '"') {
          if (line[i] == '\\') {
            if (i + 1 >= line.size()) return fail("dangling escape");
            const char esc = line[i + 1];
            if (esc == '\\') value.push_back('\\');
            else if (esc == '"') value.push_back('"');
            else if (esc == 'n') value.push_back('\n');
            else return fail("unknown label escape");
            i += 2;
          } else {
            value.push_back(line[i++]);
          }
        }
        if (i >= line.size()) return fail("unterminated label value");
        ++i;  // closing quote
        sample.labels[key] = value;
        if (i < line.size() && line[i] == ',') ++i;
      }
      if (i >= line.size()) return fail("unterminated label set");
      ++i;  // closing brace
    }
    if (i >= line.size() || line[i] != ' ') return fail("missing value separator");
    const std::string value_text = line.substr(i + 1);
    if (value_text == "+Inf" || value_text == "-Inf" || value_text == "NaN") {
      sample.value = 0.0;
    } else {
      char* end = nullptr;
      sample.value = std::strtod(value_text.c_str(), &end);
      if (end == value_text.c_str() || *end != '\0') return fail("bad sample value");
    }
    page->samples.push_back(std::move(sample));
  }

  // Every sample must belong to a TYPE'd family (histogram children resolve
  // through their suffix to the base family).
  for (const auto& s : page->samples) {
    std::string family = s.name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string base =
          s.name.size() > std::strlen(suffix) &&
                  s.name.compare(s.name.size() - std::strlen(suffix),
                                 std::string::npos, suffix) == 0
              ? s.name.substr(0, s.name.size() - std::strlen(suffix))
              : std::string{};
      if (!base.empty() && page->types.count(base) &&
          page->types.at(base) == "histogram")
        family = base;
    }
    if (page->types.find(family) == page->types.end()) {
      *error = "sample without TYPE: " + s.name;
      return false;
    }
    if (page->helped.find(family) == page->helped.end()) {
      *error = "sample without HELP: " + s.name;
      return false;
    }
  }
  return true;
}

PromPage must_parse(const std::string& text) {
  PromPage page;
  std::string error;
  EXPECT_TRUE(parse_prom(text, &page, &error)) << error;
  return page;
}

// --- name and label sanitization -------------------------------------------

TEST(PromName, SanitizesToTheMetricGrammar) {
  EXPECT_EQ(prom_name("mpmini.send.messages"), "mpmini_send_messages");
  EXPECT_EQ(prom_name("dag.strategy-0.wall_ns"), "dag_strategy_0_wall_ns");
  EXPECT_EQ(prom_name("already_fine:name_1"), "already_fine:name_1");
  EXPECT_EQ(prom_name("9lives"), "_9lives");
  EXPECT_EQ(prom_name(""), "_");
  EXPECT_EQ(prom_name("sp ace\ttab"), "sp_ace_tab");
  EXPECT_TRUE(valid_name(prom_name("42 weird!!names\n")));
}

TEST(PromName, LabelEscapingIsSpecExact) {
  EXPECT_EQ(prom_label_escape("plain"), "plain");
  EXPECT_EQ(prom_label_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(prom_label_escape("quo\"te"), "quo\\\"te");
  EXPECT_EQ(prom_label_escape("new\nline"), "new\\nline");
}

// --- exposition rendering over a hand-built snapshot ------------------------

Snapshot make_snapshot() {
  Snapshot snap;
  MetricValue c;
  c.name = "mpmini.send.messages";
  c.kind = MetricKind::counter;
  c.value = 5;
  snap.metrics.push_back(c);
  MetricValue g;
  g.name = "queue depth";  // needs sanitizing
  g.kind = MetricKind::gauge;
  g.value = 3;
  snap.metrics.push_back(g);
  MetricValue h;
  h.name = "step_ns";
  h.kind = MetricKind::histogram;
  h.bounds = {100, 200, 400};
  h.buckets = {10, 10, 0, 0};
  h.count = 20;
  h.sum = 2000;
  snap.metrics.push_back(h);
  return snap;
}

TEST(PromRender, PageParsesAndCarriesEveryFamily) {
  const PromPage page = must_parse(prom_render(make_snapshot()));
  EXPECT_EQ(page.types.at("mm_mpmini_send_messages_total"), "counter");
  EXPECT_EQ(page.types.at("mm_queue_depth"), "gauge");
  EXPECT_EQ(page.types.at("mm_step_ns"), "histogram");
  EXPECT_EQ(page.types.at("mm_step_ns_quantile"), "gauge");

  ASSERT_NE(page.find("mm_mpmini_send_messages_total"), nullptr);
  EXPECT_DOUBLE_EQ(page.find("mm_mpmini_send_messages_total")->value, 5.0);
  ASSERT_NE(page.find("mm_queue_depth"), nullptr);
  EXPECT_DOUBLE_EQ(page.find("mm_queue_depth")->value, 3.0);
}

TEST(PromRender, HistogramBucketsAreCumulativeAscendingWithInf) {
  const PromPage page = must_parse(prom_render(make_snapshot()));

  double prev_le = -1.0, prev_cum = -1.0;
  const PromSample* inf = nullptr;
  int buckets = 0;
  for (const auto& s : page.samples) {
    if (s.name != "mm_step_ns_bucket") continue;
    ++buckets;
    ASSERT_TRUE(s.labels.count("le"));
    if (s.labels.at("le") == "+Inf") {
      inf = &s;
      continue;
    }
    const double le = std::strtod(s.labels.at("le").c_str(), nullptr);
    EXPECT_GT(le, prev_le) << "le bounds must ascend";
    EXPECT_GE(s.value, prev_cum) << "buckets must be cumulative";
    prev_le = le;
    prev_cum = s.value;
  }
  EXPECT_EQ(buckets, 4);  // three bounds + +Inf
  ASSERT_NE(inf, nullptr) << "+Inf bucket is mandatory";
  const PromSample* count = page.find("mm_step_ns_count");
  ASSERT_NE(count, nullptr);
  EXPECT_DOUBLE_EQ(inf->value, count->value);
  EXPECT_DOUBLE_EQ(count->value, 20.0);
  ASSERT_NE(page.find("mm_step_ns_sum"), nullptr);
  EXPECT_DOUBLE_EQ(page.find("mm_step_ns_sum")->value, 2000.0);
}

TEST(PromRender, QuantileSeriesMatchInterpolatedQuantiles) {
  const Snapshot snap = make_snapshot();
  const PromPage page = must_parse(prom_render(snap));
  const MetricValue& h = snap.metrics.back();
  const PromSample* p50 = page.find("mm_step_ns_quantile", "quantile", "0.5");
  const PromSample* p95 = page.find("mm_step_ns_quantile", "quantile", "0.95");
  const PromSample* p99 = page.find("mm_step_ns_quantile", "quantile", "0.99");
  ASSERT_NE(p50, nullptr);
  ASSERT_NE(p95, nullptr);
  ASSERT_NE(p99, nullptr);
  EXPECT_DOUBLE_EQ(p50->value, h.quantile(0.5));
  EXPECT_DOUBLE_EQ(p95->value, h.quantile(0.95));
  EXPECT_DOUBLE_EQ(p99->value, h.quantile(0.99));
  EXPECT_DOUBLE_EQ(p50->value, 100.0);  // 10 below 100, 10 in [100, 200)
  EXPECT_DOUBLE_EQ(p95->value, 190.0);
  EXPECT_DOUBLE_EQ(p99->value, 198.0);
}

TEST(PromRender, LabeledNamesSplitIntoFamiliesWithContiguousSamples) {
  EXPECT_EQ(labeled("svc.jobs.submitted", {{"tenant", "alice"}}),
            "svc.jobs.submitted{tenant=\"alice\"}");
  EXPECT_EQ(labeled("svc.jobs", {{"tenant", "a\"b"}, {"kind", "full"}}),
            "svc.jobs{tenant=\"a\\\"b\",kind=\"full\"}");
  EXPECT_EQ(labeled("plain", {}), "plain");

  Snapshot snap;
  // Two tenants of one counter family, interleaved with an unrelated gauge —
  // a snapshot is name-sorted, so the page must regroup by family.
  for (const char* tenant : {"alice", "bob"}) {
    MetricValue c;
    c.name = labeled("svc.jobs.submitted", {{"tenant", tenant}});
    c.kind = MetricKind::counter;
    c.value = tenant[0] == 'a' ? 3 : 7;
    snap.metrics.push_back(c);
  }
  MetricValue g;
  g.name = labeled("svc.jobs.running", {{"tenant", "alice"}});
  g.kind = MetricKind::gauge;
  g.value = 2;
  snap.metrics.push_back(g);
  MetricValue h;
  h.name = labeled("svc.job.wall_ns", {{"tenant", "bob"}});
  h.kind = MetricKind::histogram;
  h.bounds = {100, 200};
  h.buckets = {4, 4, 0};
  h.count = 8;
  h.sum = 1000;
  snap.metrics.push_back(h);

  const std::string text = prom_render(snap);
  const PromPage page = must_parse(text);

  const PromSample* alice =
      page.find("mm_svc_jobs_submitted_total", "tenant", "alice");
  const PromSample* bob = page.find("mm_svc_jobs_submitted_total", "tenant", "bob");
  ASSERT_NE(alice, nullptr);
  ASSERT_NE(bob, nullptr);
  EXPECT_DOUBLE_EQ(alice->value, 3.0);
  EXPECT_DOUBLE_EQ(bob->value, 7.0);
  // One header for the family, both tenants beneath it.
  EXPECT_EQ(page.types.at("mm_svc_jobs_submitted_total"), "counter");
  EXPECT_EQ(text.find("# TYPE mm_svc_jobs_submitted_total"),
            text.rfind("# TYPE mm_svc_jobs_submitted_total"));

  const PromSample* running = page.find("mm_svc_jobs_running", "tenant", "alice");
  ASSERT_NE(running, nullptr);
  EXPECT_DOUBLE_EQ(running->value, 2.0);

  // Histogram children keep the tenant label and merge le/quantile labels.
  int buckets = 0;
  for (const auto& s : page.samples) {
    if (s.name != "mm_svc_job_wall_ns_bucket") continue;
    ++buckets;
    EXPECT_EQ(s.labels.at("tenant"), "bob");
    ASSERT_TRUE(s.labels.count("le"));
  }
  EXPECT_EQ(buckets, 3);  // two bounds + +Inf
  const PromSample* count = page.find("mm_svc_job_wall_ns_count", "tenant", "bob");
  ASSERT_NE(count, nullptr);
  EXPECT_DOUBLE_EQ(count->value, 8.0);
  const PromSample* q = page.find("mm_svc_job_wall_ns_quantile", "quantile", "0.5");
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->labels.at("tenant"), "bob");
}

TEST(PromRender, HealthPageRoundTripsHostileNodeLabels) {
  std::vector<RankHealth> health(2);
  health[0].state = Liveness::up;
  health[0].seq = 42;
  health[1].state = Liveness::down;
  const std::string hostile = "no\\de\"quo\nted";
  const PromPage page =
      must_parse(prom_render_health(health, {"collector", hostile}, 1'000'000));

  const PromSample* up0 = page.find("mm_heartbeat_up", "rank", "0");
  const PromSample* up1 = page.find("mm_heartbeat_up", "rank", "1");
  ASSERT_NE(up0, nullptr);
  ASSERT_NE(up1, nullptr);
  EXPECT_DOUBLE_EQ(up0->value, 1.0);
  EXPECT_DOUBLE_EQ(up1->value, 0.0);
  // The hostile node label survives escape + parse byte-for-byte.
  EXPECT_EQ(up1->labels.at("node"), hostile);

  const PromSample* state1 = page.find("mm_heartbeat_state", "rank", "1");
  ASSERT_NE(state1, nullptr);
  EXPECT_DOUBLE_EQ(state1->value, 2.0);  // down
  const PromSample* seq0 = page.find("mm_heartbeat_seq", "rank", "0");
  ASSERT_NE(seq0, nullptr);
  EXPECT_DOUBLE_EQ(seq0->value, 42.0);
}

TEST(PromRender, RatesPageCarriesWindowedGaugesAndQuantiles) {
  RateSample rates;
  rates.t_ns = 500'000'000;
  rates.dt_ns = 250'000'000;
  rates.msgs_per_s = 1234.5;
  rates.frames_per_s = 99.0;
  rates.p95_step_ns = 777.0;
  const PromPage page = must_parse(prom_render_rates(rates, 1'500'000'000));
  ASSERT_NE(page.find("mm_rate_messages_per_second"), nullptr);
  EXPECT_DOUBLE_EQ(page.find("mm_rate_messages_per_second")->value, 1234.5);
  ASSERT_NE(page.find("mm_rate_frames_per_second"), nullptr);
  const PromSample* p95 =
      page.find("mm_rate_step_latency_ns", "quantile", "0.95");
  ASSERT_NE(p95, nullptr);
  EXPECT_DOUBLE_EQ(p95->value, 777.0);
  ASSERT_NE(page.find("mm_snapshot_age_seconds"), nullptr);
  EXPECT_DOUBLE_EQ(page.find("mm_snapshot_age_seconds")->value, 1.0);
}

// --- the loopback listener ---------------------------------------------------

// One raw HTTP exchange against 127.0.0.1:port; returns the full response.
std::string http_exchange(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  ::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::string response;
  char buf[4096];
  ssize_t got;
  while ((got = ::recv(fd, buf, sizeof(buf), 0)) > 0)
    response.append(buf, static_cast<std::size_t>(got));
  ::close(fd);
  return response;
}

std::string http_get(std::uint16_t port, const std::string& path) {
  return http_exchange(port,
                       "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n");
}

std::string body_of(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string{} : response.substr(split + 4);
}

TEST(MetricsServerTest, ServesRoutesOnAnEphemeralLoopbackPort) {
  MetricsServer server;
  server.route("/metrics", [] {
    return HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                        "# HELP x marketminer gauge x\n# TYPE x gauge\nx 1\n"};
  });
  server.route("/healthz", [] { return HttpResponse{200, "text/plain", "ok\n"}; });
  ASSERT_TRUE(server.start(0).has_value());
  ASSERT_NE(server.port(), 0);  // the ephemeral port was resolved

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  must_parse(body_of(metrics));

  EXPECT_NE(http_get(server.port(), "/healthz").find("ok"), std::string::npos);
  // Query strings are stripped before routing.
  EXPECT_NE(http_get(server.port(), "/healthz?verbose=1").find("200 OK"),
            std::string::npos);
  EXPECT_NE(http_get(server.port(), "/nope").find("404"), std::string::npos);
  EXPECT_NE(http_exchange(server.port(),
                          "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                .find("405"),
            std::string::npos);

  // Double-start is rejected; stop is idempotent.
  EXPECT_FALSE(server.start(0).has_value());
  server.stop();
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(MetricsServerTest, GarbageRequestGetsAnErrorNotAHang) {
  MetricsServer server;
  server.route("/metrics", [] { return HttpResponse{}; });
  ASSERT_TRUE(server.start(0).has_value());
  const std::string response = http_exchange(server.port(), "garbage\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 40"), std::string::npos);
  server.stop();
}

// --- mid-run scrape of a live pipeline --------------------------------------

TEST(MetricsServerTest, LivePipelineScrapeIsValidPrometheus) {
  md::Universe universe = md::make_universe(4);
  md::GeneratorConfig gen;
  gen.quote_rate = 0.15;
  const md::SyntheticDay day(universe, gen, 3);

  std::atomic<std::uint16_t> port{0};
  engine::PipelineConfig cfg;
  cfg.symbols = 4;
  core::StrategyParams params = core::ParamGrid::base();
  params.ctype = stats::Ctype::pearson;
  params.divergence = 0.0005;
  cfg.strategies = {params};
  cfg.batch_size = 64;
  cfg.live.enabled = true;
  cfg.live.http_port = 0;  // ephemeral; published through port_out mid-run
  cfg.live.port_out = &port;
  cfg.live.snapshot_period = std::chrono::milliseconds{50};
  // Pace the replay so the day lasts ~2 wall seconds — long enough that the
  // scrape below is genuinely mid-run.
  cfg.replay_speedup = 12000.0;

  engine::PipelineResult result;
  std::thread run([&] { result = engine::run_pipeline(cfg, universe, day.quotes()); });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds{10};
  while (port.load(std::memory_order_acquire) == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  ASSERT_NE(port.load(), 0) << "listener never came up";

  const std::string response = http_get(port.load(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  const std::string page_text = body_of(response);
  const PromPage page = must_parse(page_text);
  EXPECT_NE(page_text.find("mm_heartbeat_up"), std::string::npos);
  // Every rank of the 6-node graph reports as alive mid-run.
  int alive = 0;
  for (const auto& s : page.samples)
    if (s.name == "mm_heartbeat_up" && s.value == 1.0) ++alive;
  EXPECT_EQ(alive, 6);
  EXPECT_NE(http_get(port.load(), "/healthz").find("200 OK"), std::string::npos);

  run.join();
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(result.live.http_port, port.load());
  // The listener is down once the run ends.
  EXPECT_TRUE(http_get(port.load(), "/metrics").empty());
}

}  // namespace
}  // namespace mm::obs
