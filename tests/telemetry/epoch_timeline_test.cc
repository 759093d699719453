// EpochTimeline unit contract: phase accumulation, lane-based critical
// path, the bounded ring, verdict stamping, and the JSON export.
#include "telemetry/epoch_timeline.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace sies::telemetry {
namespace {

/// Wall time the tests seal epochs with.
constexpr double kWall = 1e-3;

/// Fresh, enabled, isolated timeline per test.
class EpochTimelineTest : public ::testing::Test {
 protected:
  void SetUp() override { timeline_.Enable(); }
  EpochTimeline timeline_;
};

EpochVerdict CleanVerdict() {
  EpochVerdict verdict;
  verdict.answered = true;
  verdict.verified = true;
  verdict.coverage = 1.0;
  verdict.live_queries = 2;
  verdict.contributors = 8;
  verdict.expected_contributors = 8;
  return verdict;
}

TEST_F(EpochTimelineTest, DisabledTimelineRecordsNothing) {
  timeline_.Disable();
  timeline_.BeginEpoch(1);
  timeline_.Record(Phase::kSourceInit, 0.5);
  timeline_.EndEpoch(CleanVerdict(), kWall);
  EXPECT_EQ(timeline_.size(), 0u);
  EXPECT_EQ(timeline_.epochs_recorded(), 0u);
}

TEST_F(EpochTimelineTest, AccumulatesPhaseStatsAndVerdict) {
  timeline_.BeginEpoch(42);
  timeline_.Record(Phase::kSourceInit, 0.010);
  timeline_.Record(Phase::kSourceInit, 0.030);
  timeline_.Record(Phase::kMerge, 0.005);
  timeline_.EndEpoch(CleanVerdict(), kWall);

  auto records = timeline_.Last(1);
  ASSERT_EQ(records.size(), 1u);
  const EpochRecord& r = records[0];
  EXPECT_EQ(r.epoch, 42u);
  const PhaseStat& psr =
      r.phases[static_cast<size_t>(Phase::kSourceInit)];
  EXPECT_NEAR(psr.total_seconds, 0.040, 1e-12);
  EXPECT_DOUBLE_EQ(psr.max_call_seconds, 0.030);
  EXPECT_EQ(psr.calls, 2u);
  EXPECT_NEAR(r.attributed_seconds, 0.045, 1e-12);
  EXPECT_TRUE(r.answered);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.live_queries, 2u);
  EXPECT_EQ(r.contributors, 8u);
  EXPECT_DOUBLE_EQ(r.wall_seconds, kWall);
}

TEST_F(EpochTimelineTest, ChannelVerifyFeedsVerifyPhaseAndTamperCount) {
  timeline_.BeginEpoch(1);
  ChannelVerifySample good;
  good.slot = 0;
  good.salt_id = 7;
  good.kind = "sum";
  good.seconds = 0.002;
  good.verified = true;
  good.tid = 0;
  ChannelVerifySample bad = good;
  bad.slot = 1;
  bad.kind = "count";
  bad.seconds = 0.003;
  bad.verified = false;
  bad.tid = 1;
  // Out of slot order on purpose: the record must come back sorted.
  timeline_.Record(Phase::kVerify, bad.seconds, &bad);
  timeline_.Record(Phase::kVerify, good.seconds, &good);
  timeline_.EndEpoch(CleanVerdict(), kWall);

  auto records = timeline_.Last(1);
  ASSERT_EQ(records.size(), 1u);
  const EpochRecord& r = records[0];
  ASSERT_EQ(r.channels.size(), 2u);
  EXPECT_EQ(r.channels[0].slot, 0u);
  EXPECT_EQ(r.channels[1].slot, 1u);
  EXPECT_EQ(r.tampered_channels, 1u);
  const PhaseStat& verify = r.phases[static_cast<size_t>(Phase::kVerify)];
  EXPECT_NEAR(verify.total_seconds, 0.005, 1e-12);
  EXPECT_EQ(verify.calls, 2u);
  // Two lanes: the busiest (tid 1, 3ms) is the critical contribution.
  EXPECT_DOUBLE_EQ(verify.lane_max_seconds, 0.003);
}

TEST_F(EpochTimelineTest, CriticalPathSumsBusiestLanesClampedToWall) {
  timeline_.BeginEpoch(1);
  // Serial phase: lane max == total.
  timeline_.Record(Phase::kMerge, 1e-9);
  // Source init fanned out over two lanes (threads).
  std::thread lane_a([this] { timeline_.Record(Phase::kSourceInit, 2e-9); });
  lane_a.join();
  std::thread lane_b([this] { timeline_.Record(Phase::kSourceInit, 5e-9); });
  lane_b.join();
  timeline_.EndEpoch(CleanVerdict(), kWall);

  const EpochRecord r = timeline_.Last(1)[0];
  // 1ns merge + busiest source lane 5ns; wall is far larger, so no
  // clamping: critical == 6ns exactly.
  EXPECT_NEAR(r.critical_path_seconds, 6e-9, 1e-18);
  EXPECT_LE(r.critical_path_seconds, r.wall_seconds);
  EXPECT_NEAR(r.attributed_seconds, 8e-9, 1e-18);
}

TEST_F(EpochTimelineTest, EvaluateBreakdownIsNotAttributedTwice) {
  timeline_.BeginEpoch(1);
  timeline_.Record(Phase::kEvaluate, 0.004);
  // The engine's breakdown of that evaluation, inside its interval.
  timeline_.Record(Phase::kWireParse, 0.001);
  ChannelVerifySample s;
  s.kind = "sum";
  s.seconds = 0.002;
  timeline_.Record(Phase::kVerify, s.seconds, &s);
  timeline_.Record(Phase::kAssemble, 0.0005);
  timeline_.EndEpoch(CleanVerdict(), /*wall_seconds=*/1.0);

  const EpochRecord r = timeline_.Last(1)[0];
  EXPECT_DOUBLE_EQ(r.attributed_seconds, 0.004);
  EXPECT_DOUBLE_EQ(r.critical_path_seconds, 0.004);
  EXPECT_DOUBLE_EQ(
      r.phases[static_cast<size_t>(Phase::kWireParse)].total_seconds, 0.001);
  const std::string json = timeline_.ToJson(1);
  EXPECT_NE(json.find("{\"phase\": \"evaluate\", \"total_seconds\""),
            std::string::npos) << json;
  EXPECT_NE(json.find("{\"phase\": \"wire_parse\", \"within\": \"evaluate\""),
            std::string::npos) << json;
}

TEST_F(EpochTimelineTest, ClampsCriticalPathToWall) {
  timeline_.BeginEpoch(1);
  // A fake 10-hour phase: the wall is microseconds, so the reported
  // critical path must clamp to it.
  timeline_.Record(Phase::kSourceInit, 36000.0);
  timeline_.EndEpoch(CleanVerdict(), kWall);
  const EpochRecord r = timeline_.Last(1)[0];
  EXPECT_DOUBLE_EQ(r.critical_path_seconds, r.wall_seconds);
  EXPECT_DOUBLE_EQ(r.attributed_seconds, 36000.0);
}

TEST_F(EpochTimelineTest, RingEvictsOldestAndCountsEverything) {
  timeline_.SetCapacity(3);
  for (uint64_t epoch = 1; epoch <= 5; ++epoch) {
    timeline_.BeginEpoch(epoch);
    timeline_.EndEpoch(CleanVerdict(), kWall);
  }
  EXPECT_EQ(timeline_.size(), 3u);
  EXPECT_EQ(timeline_.epochs_recorded(), 5u);
  auto records = timeline_.Last(10);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records.front().epoch, 3u);  // oldest first
  EXPECT_EQ(records.back().epoch, 5u);
  // Shrinking evicts immediately.
  timeline_.SetCapacity(1);
  EXPECT_EQ(timeline_.size(), 1u);
  EXPECT_EQ(timeline_.Last(10)[0].epoch, 5u);
}

TEST_F(EpochTimelineTest, ReopeningAnEpochDiscardsTheAbandonedOne) {
  timeline_.BeginEpoch(1);
  timeline_.Record(Phase::kSourceInit, 1.0);
  timeline_.BeginEpoch(2);  // epoch 1 never ended: discard it
  timeline_.EndEpoch(CleanVerdict(), kWall);
  auto records = timeline_.Last(10);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].epoch, 2u);
  EXPECT_DOUBLE_EQ(records[0].attributed_seconds, 0.0);
}

TEST_F(EpochTimelineTest, RecordsOutsideAnOpenEpochAreDropped) {
  timeline_.Record(Phase::kSourceInit, 1.0);
  ChannelVerifySample s;
  s.kind = "sum";
  timeline_.Record(Phase::kVerify, s.seconds, &s);
  timeline_.EndEpoch(CleanVerdict(), kWall);
  EXPECT_EQ(timeline_.size(), 0u);
}

TEST_F(EpochTimelineTest, ToJsonShapeAndWindow) {
  timeline_.BeginEpoch(7);
  timeline_.Record(Phase::kKeyDerive, 0.001);
  ChannelVerifySample s;
  s.slot = 0;
  s.salt_id = 3;
  s.kind = "sum_squares";
  s.seconds = 0.002;
  s.verified = false;
  s.tid = 1;
  timeline_.Record(Phase::kVerify, s.seconds, &s);
  EpochVerdict verdict = CleanVerdict();
  verdict.verified = false;
  timeline_.EndEpoch(verdict, kWall);

  const std::string json = timeline_.ToJson(5);
  EXPECT_NE(json.find("\"window\": 5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"epochs_recorded\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"epoch\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"phase\": \"key_derive\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"sum_squares\""), std::string::npos);
  EXPECT_NE(json.find("\"salt_id\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"tampered_channels\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"verified\": false"), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 1"), std::string::npos);
}

TEST_F(EpochTimelineTest, ResetDropsRecordsAndOpenEpoch) {
  timeline_.BeginEpoch(1);
  timeline_.EndEpoch(CleanVerdict(), kWall);
  timeline_.BeginEpoch(2);
  timeline_.Reset();
  EXPECT_EQ(timeline_.size(), 0u);
  EXPECT_EQ(timeline_.epochs_recorded(), 0u);
  timeline_.EndEpoch(CleanVerdict(), kWall);  // open epoch was dropped: no-op
  EXPECT_EQ(timeline_.size(), 0u);
  EXPECT_TRUE(timeline_.enabled()) << "Reset must keep the enabled state";
}

}  // namespace
}  // namespace sies::telemetry
