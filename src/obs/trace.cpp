#include "obs/trace.hpp"

#include <atomic>
#include <cstdio>
#include <cstring>

#include "common/json.hpp"
#include "common/strings.hpp"

namespace mm::obs {
namespace {

// Event/process names are plain identifiers in practice, but a stray quote
// must not corrupt the trace; use the tree-wide shared JSON escaper.
std::string escape(const std::string& s) { return json::escape(s); }

Status write_string(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr)
    return Error(Errc::io_error, "trace: cannot open " + path + " for writing");
  const std::size_t written = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  if (written != body.size())
    return Error(Errc::io_error, "trace: short write to " + path);
  return {};
}

}  // namespace

std::uint64_t next_trace_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::uint32_t next_span_id() {
  static std::atomic<std::uint32_t> counter{0};
  // Wraps after 2^32 flows; ids only need to be unique within one trace's
  // lifetime, and 0 stays reserved for "no flow".
  std::uint32_t id = counter.fetch_add(1, std::memory_order_relaxed) + 1;
  if (id == 0) id = counter.fetch_add(1, std::memory_order_relaxed) + 1;
  return id;
}

ThreadTrace& thread_trace() noexcept {
  thread_local ThreadTrace state;
  return state;
}

TraceRing::TraceRing(std::int32_t pid, std::int64_t epoch_ns, std::size_t capacity)
    : pid_(pid), epoch_ns_(epoch_ns) {
  events_.resize(capacity);
}

void TraceRing::push(const char* name, std::int64_t start_ns, std::int64_t dur_ns,
                     std::uint8_t kind, std::uint32_t flow) {
  if (size_ == events_.size()) {
    // Full: drop the newest rather than overwrite — the run's opening events
    // (graph setup, first frames) are the ones post-mortems need intact.
    ++dropped_;
    return;
  }
  TraceEvent& e = events_[size_++];
  std::snprintf(e.name, sizeof(e.name), "%s", name == nullptr ? "" : name);
  e.kind = kind;
  e.ts_ns = start_ns - epoch_ns_;
  e.dur_ns = dur_ns;
  e.tid = tid_;
  e.flow = flow;
}

TraceSink::TraceSink(std::size_t ring_capacity)
    : epoch_ns_(now_ns()), ring_capacity_(ring_capacity) {}

TraceRing& TraceSink::ring(std::int32_t pid, const std::string& process_name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = rings_[pid];
  if (!slot) {
    slot = std::make_unique<TraceRing>(pid, epoch_ns_, ring_capacity_);
    process_names_[pid] = process_name;
  }
  return *slot;
}

void TraceSink::set_thread_name(std::int32_t pid, std::int32_t tid,
                                const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  thread_names_[{pid, tid}] = name;
}

void TraceSink::set_meta(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mutex_);
  meta_[key] = value;
}

std::string TraceSink::chrome_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto append = [&](const std::string& event) {
    if (!first) out += ",";
    first = false;
    out += event;
  };
  for (const auto& [pid, name] : process_names_)
    append(format("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
                  "\"args\":{\"name\":\"%s\"}}",
                  pid, escape(name).c_str()));
  for (const auto& [key, name] : thread_names_)
    append(format("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
                  "\"args\":{\"name\":\"%s\"}}",
                  key.first, key.second, escape(name).c_str()));
  for (const auto& [pid, ring] : rings_) {
    for (std::size_t i = 0; i < ring->size(); ++i) {
      const TraceEvent& e = ring->event(i);
      // chrome://tracing timestamps are microseconds (fractional allowed).
      switch (e.kind) {
        case TraceRing::kInstant:
          append(format("{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,"
                        "\"pid\":%d,\"tid\":%d}",
                        escape(e.name).c_str(), static_cast<double>(e.ts_ns) / 1e3,
                        pid, e.tid));
          break;
        case TraceRing::kFlowStart:
          // The viewer binds each flow endpoint to the slice enclosing its
          // timestamp on (pid, tid); matching ids draw the arrow.
          append(format("{\"name\":\"%s\",\"cat\":\"flow\",\"ph\":\"s\","
                        "\"id\":%u,\"ts\":%.3f,\"pid\":%d,\"tid\":%d}",
                        escape(e.name).c_str(), e.flow,
                        static_cast<double>(e.ts_ns) / 1e3, pid, e.tid));
          break;
        case TraceRing::kFlowFinish:
          // "bp":"e" binds to the enclosing slice (the recv span) instead of
          // the next slice to start.
          append(format("{\"name\":\"%s\",\"cat\":\"flow\",\"ph\":\"f\","
                        "\"bp\":\"e\",\"id\":%u,\"ts\":%.3f,\"pid\":%d,"
                        "\"tid\":%d}",
                        escape(e.name).c_str(), e.flow,
                        static_cast<double>(e.ts_ns) / 1e3, pid, e.tid));
          break;
        default:
          append(format("{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                        "\"pid\":%d,\"tid\":%d}",
                        escape(e.name).c_str(), static_cast<double>(e.ts_ns) / 1e3,
                        static_cast<double>(e.dur_ns) / 1e3, pid, e.tid));
          break;
      }
    }
  }
  out += "]";
  if (!meta_.empty()) {
    out += ",\"otherData\":{";
    bool first_meta = true;
    for (const auto& [key, value] : meta_) {
      if (!first_meta) out += ",";
      first_meta = false;
      out += format("\"%s\":\"%s\"", escape(key).c_str(), escape(value).c_str());
    }
    out += "}";
  }
  out += "}";
  return out;
}

Status TraceSink::write_file(const std::string& path) const {
  return write_string(path, chrome_json());
}

std::uint64_t TraceSink::count_kind(std::uint8_t kind) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [pid, ring] : rings_)
    for (std::size_t i = 0; i < ring->size(); ++i)
      if (ring->event(i).kind == kind) ++total;
  return total;
}

std::uint64_t TraceSink::total_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [pid, ring] : rings_) total += ring->size();
  return total;
}

std::uint64_t TraceSink::total_dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [pid, ring] : rings_) total += ring->dropped();
  return total;
}

std::uint64_t TraceSink::total_flow_starts() const {
  return count_kind(TraceRing::kFlowStart);
}

std::uint64_t TraceSink::total_flow_finishes() const {
  return count_kind(TraceRing::kFlowFinish);
}

}  // namespace mm::obs
