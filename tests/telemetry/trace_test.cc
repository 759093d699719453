// Tracer unit tests: recorded spans keep their fields and per-thread
// ids, timestamps are measured from tracer creation, and the Chrome
// trace_event export carries every field about://tracing needs. Whether
// a span is recorded at all is the phase probe's decision (phase_test).
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "telemetry/trace.h"

namespace sies::telemetry {
namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::microseconds;

TEST(TracerTest, DisabledByDefault) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(TracerTest, RecordCapturesSpanFields) {
  Tracer tracer;
  const Clock::time_point start = Clock::now() + microseconds(11);
  tracer.Record("merge", "phase", 7, start, start + microseconds(3));
  ASSERT_EQ(tracer.size(), 1u);
  SpanEvent e = tracer.Events()[0];
  EXPECT_STREQ(e.name, "merge");
  EXPECT_STREQ(e.category, "phase");
  EXPECT_EQ(e.epoch, 7u);
  EXPECT_GE(e.ts_us, 11u);
  EXPECT_EQ(e.dur_us, 3u);
  EXPECT_EQ(e.tid, Tracer::CurrentThreadId());
}

TEST(TracerTest, ResetDropsEventsButKeepsEnabledState) {
  Tracer tracer;
  tracer.Enable();
  tracer.Record("a", "t", 1, Clock::now(), Clock::now());
  ASSERT_EQ(tracer.size(), 1u);
  tracer.Reset();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_TRUE(tracer.enabled());
}

TEST(TracerTest, SpansFromDifferentThreadsGetDistinctIds) {
  Tracer tracer;
  const Clock::time_point now = Clock::now();
  tracer.Record("main-span", "test", 1, now, now);
  std::thread worker(
      [&tracer, now] { tracer.Record("worker-span", "test", 1, now, now); });
  worker.join();
  auto events = tracer.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST(TracerTest, TimestampsCountFromTracerCreation) {
  const Clock::time_point before = Clock::now();
  Tracer tracer;
  // A span that started before the tracer existed reads 0, not a wrap.
  tracer.Record("early", "test", 1, before - std::chrono::seconds(1), before);
  const Clock::time_point later = Clock::now() + std::chrono::milliseconds(5);
  tracer.Record("later", "test", 1, later,
                later + std::chrono::nanoseconds(2999));
  auto events = tracer.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ts_us, 0u);
  EXPECT_EQ(events[0].dur_us, 1000000u);
  EXPECT_GE(events[1].ts_us, 4999u);
  EXPECT_EQ(events[1].dur_us, 2u);  // whole microseconds
}

TEST(TracerTest, ChromeTraceExportCarriesAllFields) {
  Tracer tracer;
  tracer.Enable();
  const Clock::time_point early = Clock::now() - std::chrono::seconds(1);
  tracer.Record("evaluate", "phase", 42, early, early + microseconds(25));
  std::string json = tracer.ToChromeTrace();
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);  // complete event
  EXPECT_NE(json.find("\"name\": \"evaluate\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"phase\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 25"), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"epoch\": 42}"), std::string::npos);
}

TEST(TracerTest, EmptyTraceIsStillValidChromeJson) {
  Tracer tracer;
  EXPECT_EQ(tracer.ToChromeTrace(), "{\"traceEvents\": [\n]}\n");
}

}  // namespace
}  // namespace sies::telemetry
