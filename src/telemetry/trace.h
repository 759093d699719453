// Phase tracer: per-epoch span events with a Chrome trace_event
// exporter (about://tracing, ui.perfetto.dev), one lane per thread — a
// `--threads` run shows its source_init spans overlap. The phase probe
// (telemetry/phase.h) records every span: one per timed phase interval,
// named like its histogram and `/epochs` phase, plus one "epoch" span
// per run-loop epoch.
//
// Tracing is OFF by default (one relaxed load per probe). Recording
// takes a mutex per completed span — fine for a trace a human reads.
#ifndef SIES_TELEMETRY_TRACE_H_
#define SIES_TELEMETRY_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace sies::telemetry {

/// One completed span. `name`/`category` must point at storage that
/// outlives the tracer — in practice, string literals at call sites.
struct SpanEvent {
  const char* name = "";
  const char* category = "";
  uint64_t epoch = 0;    ///< protocol epoch the span belongs to (0 = n/a)
  uint64_t ts_us = 0;    ///< start, microseconds since tracer creation
  uint64_t dur_us = 0;   ///< duration in microseconds
  uint32_t tid = 0;      ///< dense thread id (0 = first thread seen)
};

class Tracer {
 public:
  Tracer();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  /// Drops all recorded spans (does not change enabled state).
  void Reset();

  /// Records the completed span [start, stop] in whole microseconds
  /// (a start before the tracer existed reads 0); the thread id is the
  /// caller's.
  void Record(const char* name, const char* category, uint64_t epoch,
              std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point stop);

  std::vector<SpanEvent> Events() const;
  size_t size() const;

  /// Chrome trace_event JSON: {"traceEvents": [{"ph": "X", ...}, ...]}.
  /// Loadable directly in about://tracing and ui.perfetto.dev.
  std::string ToChromeTrace() const;

  /// Dense id of the calling thread (stable for the thread's lifetime).
  static uint32_t CurrentThreadId();

  /// The tracer all built-in instrumentation reports to.
  static Tracer& Global();

 private:
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point base_;  // at construction
  mutable std::mutex mu_;
  std::vector<SpanEvent> events_;
};

}  // namespace sies::telemetry

#endif  // SIES_TELEMETRY_TRACE_H_
