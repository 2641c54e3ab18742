// Backtest-as-a-service demo.
//
// Default mode starts the service on --port (0 = ephemeral) and prints a
// curl quickstart, then serves until stdin closes or SIGINT:
//
//   ./svc_demo --port 7090
//   curl -s localhost:7090/jobs -d '{"tenant":"alice","symbols":8,
//        "paramsets":[{"ctype":"pearson"},{"ctype":"maronna"}]}'
//   curl -s localhost:7090/jobs/job-1
//   curl -s localhost:7090/jobs/job-1/result
//   curl -s localhost:7090/metrics | grep -E 'svc|corr_store'
//
// --smoke runs the CI scenario instead: two tenants POST the same sweep over
// one shared day, the process asserts the correlation plane computed each
// key exactly once, that both tenants' results agree number-for-number, that
// each result carries the queue/cache/compute/exchange latency breakdown,
// and that GET /jobs/{id}/trace serves a job-scoped Perfetto trace with
// cross-rank flow events stitching send->recv spans; prints one SVC_SMOKE_OK
// line and exits 0 (non-zero on any violation).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "svc/service.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

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
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[4096];
  ssize_t got;
  while ((got = ::recv(fd, buf, sizeof(buf), 0)) > 0)
    response.append(buf, static_cast<std::size_t>(got));
  ::close(fd);
  return response;
}

std::string post_json(std::uint16_t port, const std::string& path,
                      const std::string& body) {
  return http_exchange(port,
                       "POST " + path + " HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                           std::to_string(body.size()) + "\r\n\r\n" + body);
}

std::string body_of(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string{} : response.substr(split + 4);
}

int run_smoke() {
  mm::svc::ServiceConfig config;
  config.workers = 2;
  config.quote_rate = 0.15;
  mm::svc::BacktestService service(config);
  if (!service.start().has_value()) {
    std::fprintf(stderr, "smoke: service failed to start\n");
    return 1;
  }
  const std::uint16_t port = service.port();

  const char* sweep =
      R"({"tenant":"%s","symbols":8,"seed":7,"day":0,"paramsets":[
          {"ctype":"pearson","divergence":0.0005},
          {"ctype":"pearson","divergence":0.001},
          {"ctype":"maronna","corr_window":60},
          {"ctype":"combined","corr_window":60}]})";
  char spec[512];
  std::string ids[2];
  const char* tenants[2] = {"alice", "bob"};
  for (int t = 0; t < 2; ++t) {
    std::snprintf(spec, sizeof(spec), sweep, tenants[t]);
    auto doc = mm::json::parse(body_of(post_json(port, "/jobs", spec)));
    if (!doc.has_value() || doc.value().get_string("id", "").empty()) {
      std::fprintf(stderr, "smoke: POST /jobs failed for %s\n", tenants[t]);
      return 1;
    }
    ids[t] = doc.value().get_string("id", "");
  }
  for (const auto& id : ids)
    if (!service.wait(id, 120000)) {
      std::fprintf(stderr, "smoke: job %s did not finish\n", id.c_str());
      return 1;
    }

  std::string results[2];
  for (int t = 0; t < 2; ++t) {
    const auto response =
        http_exchange(port, "GET /jobs/" + ids[t] + "/result HTTP/1.1\r\nHost: x\r\n\r\n");
    auto doc = mm::json::parse(body_of(response));
    if (!doc.has_value() || doc.value().get_string("tenant", "") != tenants[t]) {
      std::fprintf(stderr, "smoke: GET result failed for %s\n", tenants[t]);
      return 1;
    }
    // Every result must attribute its latency across the four stages.
    const mm::json::Value* latency = doc.value().find("latency");
    if (latency == nullptr || !latency->is_array() || latency->size() != 4) {
      std::fprintf(stderr, "smoke: result for %s lacks the latency breakdown\n",
                   tenants[t]);
      return 1;
    }
    // Strip the tenant- and run-specific fields (ids, wall clock, cache luck,
    // per-run latency); what remains must match exactly.
    mm::json::Value stripped = mm::json::Value::object();
    for (const auto& [key, value] : doc.value().members())
      if (key != "id" && key != "tenant" && key != "wall_seconds" &&
          key != "units_from_cache" && key != "trace_id" && key != "latency")
        stripped.set(key, value);
    results[t] = stripped.dump();
  }
  if (results[0] != results[1]) {
    std::fprintf(stderr, "smoke: tenants' results diverged\n%s\n%s\n",
                 results[0].c_str(), results[1].c_str());
    return 1;
  }

  // Job-scoped traces: each job's trace endpoint serves its own sink —
  // tagged with its own job id — and (when telemetry is compiled in) the
  // stitched trace must contain cross-rank flow events linking send spans to
  // recv spans.
  std::uint64_t flow_pairs = 0;
  for (int t = 0; t < 2; ++t) {
    const std::string trace = body_of(http_exchange(
        port, "GET /jobs/" + ids[t] + "/trace HTTP/1.1\r\nHost: x\r\n\r\n"));
    if (trace.find("\"traceEvents\"") == std::string::npos) {
      std::fprintf(stderr, "smoke: GET trace failed for %s\n", tenants[t]);
      return 1;
    }
    const std::string own_tag = "\"job\":\"" + ids[t] + "\"";
    const std::string other_tag = "\"job\":\"" + ids[1 - t] + "\"";
    if (trace.find(own_tag) == std::string::npos ||
        trace.find(other_tag) != std::string::npos) {
      std::fprintf(stderr, "smoke: trace for %s is not job-scoped\n",
                   ids[t].c_str());
      return 1;
    }
    if (trace.find("\"ph\":\"s\"") == std::string::npos ||
        trace.find("\"ph\":\"f\"") == std::string::npos) {
      std::fprintf(stderr, "smoke: trace for %s has no cross-rank flow events\n",
                   ids[t].c_str());
      return 1;
    }
    ++flow_pairs;
  }

  const auto store = service.corr_store().stats();
  const auto days = service.day_cache().stats();
  service.stop();
  if (store.computes != 2 || store.hits == 0) {
    std::fprintf(stderr,
                 "smoke: memoization broken: computes=%llu hits=%llu\n",
                 static_cast<unsigned long long>(store.computes),
                 static_cast<unsigned long long>(store.hits));
    return 1;
  }
  if (days.misses != 1) {
    std::fprintf(stderr, "smoke: day cache loaded %llu times, want 1\n",
                 static_cast<unsigned long long>(days.misses));
    return 1;
  }
  std::printf(
      "SVC_SMOKE_OK tenants=2 corr_computes=%llu corr_hits=%llu day_loads=%llu "
      "stitched_traces=%llu\n",
      static_cast<unsigned long long>(store.computes),
      static_cast<unsigned long long>(store.hits),
      static_cast<unsigned long long>(days.misses),
      static_cast<unsigned long long>(flow_pairs));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint16_t port = 7090;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc)
      port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
  }
  if (smoke) return run_smoke();

  mm::svc::ServiceConfig config;
  config.port = port;
  mm::svc::BacktestService service(config);
  if (auto status = service.start(); !status.has_value()) {
    std::fprintf(stderr, "failed to start: %s\n",
                 status.error().to_string().c_str());
    return 1;
  }
  std::printf("backtest service on http://127.0.0.1:%u — try:\n", service.port());
  std::printf(
      "  curl -s localhost:%u/jobs -d '{\"tenant\":\"alice\",\"symbols\":8,"
      "\"paramsets\":[{\"ctype\":\"pearson\"},{\"ctype\":\"maronna\"}]}'\n",
      service.port());
  std::printf("  curl -s localhost:%u/jobs/job-1\n", service.port());
  std::printf("  curl -s localhost:%u/jobs/job-1/result\n", service.port());
  std::printf("  curl -s localhost:%u/metrics | grep -E 'svc|corr_store'\n",
              service.port());
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (!g_stop) ::usleep(100000);
  service.stop();
  return 0;
}
