#include "telemetry/trace.h"

namespace sies::telemetry {

Tracer::Tracer() : base_(std::chrono::steady_clock::now()) {}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

void Tracer::Record(const char* name, const char* category, uint64_t epoch,
                    std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point stop) {
  auto micros = [](std::chrono::steady_clock::duration d) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(d).count());
  };
  SpanEvent event;
  event.name = name;
  event.category = category;
  event.epoch = epoch;
  event.ts_us = start <= base_ ? 0 : micros(start - base_);
  event.dur_us = micros(stop - start);
  event.tid = CurrentThreadId();
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(event);
}

std::vector<SpanEvent> Tracer::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::string Tracer::ToChromeTrace() const {
  std::vector<SpanEvent> events = Events();
  std::string out = "{\"traceEvents\": [\n";
  for (size_t i = 0; i < events.size(); ++i) {
    const SpanEvent& e = events[i];
    out += "  {\"ph\": \"X\", \"pid\": 1, \"tid\": " +
           std::to_string(e.tid) + ", \"name\": \"" + e.name +
           "\", \"cat\": \"" + e.category +
           "\", \"ts\": " + std::to_string(e.ts_us) +
           ", \"dur\": " + std::to_string(e.dur_us) +
           ", \"args\": {\"epoch\": " + std::to_string(e.epoch) + "}}";
    out += (i + 1 < events.size()) ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

uint32_t Tracer::CurrentThreadId() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

}  // namespace sies::telemetry
