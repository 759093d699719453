// Phase probe unit contract: one reading per interval reaches every
// sink — the always-on histogram, the tracer and the epoch timeline
// when enabled, and the caller — under the phase's one name.
//
// The probe reports to the process-wide sinks, so each test resets them
// up front and disables them on the way out.
#include "telemetry/phase.h"

#include <gtest/gtest.h>

#include <string>

#include "telemetry/telemetry.h"

namespace sies::telemetry {
namespace {

class PhaseTimerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DisableAll();
    ResetAll();
  }
  void TearDown() override {
    DisableAll();
    ResetAll();
  }

  const PhaseHistograms& histograms_ = PhaseHistogramsFor("PHASE_TEST");
};

EpochVerdict Answered() {
  EpochVerdict verdict;
  verdict.answered = true;
  verdict.verified = true;
  verdict.coverage = 1.0;
  return verdict;
}

TEST_F(PhaseTimerTest, NamesAreStable) {
  EXPECT_STREQ(PhaseName(Phase::kSourceInit), "source_init");
  EXPECT_STREQ(PhaseName(Phase::kMerge), "merge");
  EXPECT_STREQ(PhaseName(Phase::kTransport), "transport");
  EXPECT_STREQ(PhaseName(Phase::kEvaluate), "evaluate");
  EXPECT_STREQ(PhaseName(Phase::kWireParse), "wire_parse");
  EXPECT_STREQ(PhaseName(Phase::kKeyDerive), "key_derive");
  EXPECT_STREQ(PhaseName(Phase::kVerify), "verify");
  EXPECT_STREQ(PhaseName(Phase::kAssemble), "assemble");
  EXPECT_FALSE(WithinEvaluate(Phase::kEvaluate));
  EXPECT_TRUE(WithinEvaluate(Phase::kWireParse));
  EXPECT_TRUE(WithinEvaluate(Phase::kAssemble));
}

TEST_F(PhaseTimerTest, HistogramsAreOneSetPerScheme) {
  EXPECT_EQ(&PhaseHistogramsFor("PHASE_TEST"), &histograms_);
  EXPECT_NE(&PhaseHistogramsFor("OTHER_SCHEME"), &histograms_);
  EXPECT_EQ(histograms_[static_cast<size_t>(Phase::kMerge)],
            MetricsRegistry::Global().GetHistogram(
                "sies_phase_seconds",
                {{"scheme", "PHASE_TEST"}, {"phase", "merge"}}));
}

TEST_F(PhaseTimerTest, DisabledSinksSeeNothingButTheHistogram) {
  Histogram* merge = histograms_[static_cast<size_t>(Phase::kMerge)];
  EpochScope scope(1);
  PhaseTimer timer(histograms_, Phase::kMerge, 1);
  const double seconds = timer.Stop();
  scope.End(Answered());
  EXPECT_GE(seconds, 0.0);
  EXPECT_EQ(merge->TotalCount(), 1u);
  EXPECT_DOUBLE_EQ(merge->Sum(), seconds);
  EXPECT_EQ(Tracer::Global().size(), 0u);
  EXPECT_EQ(EpochTimeline::Global().size(), 0u);
}

TEST_F(PhaseTimerTest, EveryEnabledSinkGetsTheSameReading) {
  EnableAll();
  EpochScope scope(9);
  PhaseTimer timer(histograms_, Phase::kSourceInit, 9);
  volatile uint64_t spin = 0;
  for (int i = 0; i < 100000; ++i) spin = spin + static_cast<uint64_t>(i);
  const double seconds = timer.Stop();
  scope.End(Answered());

  EXPECT_DOUBLE_EQ(
      histograms_[static_cast<size_t>(Phase::kSourceInit)]->Sum(), seconds);
  const std::vector<SpanEvent> spans = Tracer::Global().Events();
  ASSERT_EQ(spans.size(), 2u);  // the phase, then the epoch
  EXPECT_STREQ(spans[0].name, "source_init");
  EXPECT_STREQ(spans[0].category, "phase");
  EXPECT_EQ(spans[0].epoch, 9u);
  // The tracer keeps whole microseconds of the same reading.
  EXPECT_NEAR(static_cast<double>(spans[0].dur_us), seconds * 1e6, 1.0);
  EXPECT_STREQ(spans[1].name, "epoch");
  EXPECT_LE(spans[1].ts_us, spans[0].ts_us);

  const std::vector<EpochRecord> records = EpochTimeline::Global().Last(1);
  ASSERT_EQ(records.size(), 1u);
  const EpochRecord& r = records[0];
  EXPECT_EQ(r.epoch, 9u);
  const PhaseStat& stat = r.phases[static_cast<size_t>(Phase::kSourceInit)];
  EXPECT_EQ(stat.calls, 1u);
  EXPECT_DOUBLE_EQ(stat.total_seconds, seconds);
  EXPECT_GE(r.wall_seconds, seconds);
  EXPECT_NEAR(static_cast<double>(spans[1].dur_us), r.wall_seconds * 1e6,
              1.0);
}

TEST_F(PhaseTimerTest, VerifyStopKeepsTheChannelIdentity) {
  EpochTimeline::Global().Enable();
  EpochScope scope(3);
  PhaseTimer timer(histograms_, Phase::kVerify, 3);
  ChannelVerifySample sample;
  sample.slot = 4;
  sample.salt_id = 2;
  sample.kind = "count";
  sample.verified = false;
  const double seconds = timer.Stop(sample);
  scope.End(Answered());

  const EpochRecord r = EpochTimeline::Global().Last(1).at(0);
  ASSERT_EQ(r.channels.size(), 1u);
  EXPECT_EQ(r.channels[0].slot, 4u);
  EXPECT_EQ(r.channels[0].salt_id, 2u);
  EXPECT_STREQ(r.channels[0].kind, "count");
  EXPECT_DOUBLE_EQ(r.channels[0].seconds, seconds);
  EXPECT_EQ(r.channels[0].tid, Tracer::CurrentThreadId());
  EXPECT_EQ(r.tampered_channels, 1u);
  EXPECT_EQ(r.phases[static_cast<size_t>(Phase::kVerify)].calls, 1u);
}

TEST_F(PhaseTimerTest, AnUnstoppedTimerStopsWhenItGoesOutOfScope) {
  Histogram* transport = histograms_[static_cast<size_t>(Phase::kTransport)];
  { PhaseTimer timer(histograms_, Phase::kTransport, 1); }
  EXPECT_EQ(transport->TotalCount(), 1u);
  {
    PhaseTimer timer(histograms_, Phase::kTransport, 1);
    timer.Stop();  // stopped once: the destructor adds nothing
  }
  EXPECT_EQ(transport->TotalCount(), 2u);
}

TEST_F(PhaseTimerTest, TheEvaluateBreakdownIsTimedOnlyWhileWatched) {
  Histogram* parse = histograms_[static_cast<size_t>(Phase::kWireParse)];
  EXPECT_FALSE(DrillDownWatched());
  {
    PhaseTimer timer(histograms_, Phase::kWireParse, 1);
    EXPECT_EQ(timer.Stop(), 0.0);
  }
  EXPECT_EQ(parse->TotalCount(), 0u);

  Tracer::Global().Enable();
  EXPECT_TRUE(DrillDownWatched());
  PhaseTimer timer(histograms_, Phase::kWireParse, 1);
  timer.Stop();
  EXPECT_EQ(parse->TotalCount(), 1u);
  EXPECT_EQ(Tracer::Global().size(), 1u);
}

TEST_F(PhaseTimerTest, AnEpochWithoutEndRecordsNothing) {
  EnableAll();
  { EpochScope abandoned(1); }
  EpochScope scope(2);
  scope.End(Answered());
  const std::vector<EpochRecord> records = EpochTimeline::Global().Last(10);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].epoch, 2u);
  EXPECT_EQ(Tracer::Global().size(), 1u);
}

}  // namespace
}  // namespace sies::telemetry
