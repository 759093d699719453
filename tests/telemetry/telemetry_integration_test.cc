// End-to-end telemetry tests through the full simulator: the audit
// trail must record EXACTLY the tampering the in-flight adversary
// injected (count and attribution), the phase histograms must count
// every phase the epoch ran, the tracer must capture the phase spans,
// and the trace, the epoch timeline, the histograms and the per-party
// costs must agree interval for interval — all against the same global
// sinks sies_sim exports.
//
// These tests share the process-wide telemetry singletons, so each one
// resets the relevant sink up front and disables it on the way out.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.h"

#include "net/adversary.h"
#include "runner/runner.h"
#include "telemetry/telemetry.h"

namespace sies::runner {
namespace {

// Same shape as the attack_test fixture: a ready-to-run SIES network,
// the K = 1 engine serving SUM(temperature) over the trace.
struct SiesFixture {
  explicit SiesFixture(uint32_t n = 16, uint32_t fanout = 4,
                       uint64_t seed = 21)
      : network(net::Topology::BuildCompleteTree(n, fanout).value()),
        params(core::MakeParams(n, seed).value()),
        keys(core::GenerateKeys(params, EncodeUint64(seed))),
        trace([&] {
          workload::TraceConfig c;
          c.num_sources = n;
          c.seed = seed;
          return workload::TraceGenerator(c);
        }()),
        protocol(MakeSingleQueryScheduler(
                     params, keys, network.topology(),
                     [this](uint32_t index, uint64_t epoch) {
                       return trace.ReadingAt(index, epoch);
                     },
                     core::Query{})
                     .value()) {}

  net::Network network;
  core::Params params;
  core::QuerierKeys keys;
  workload::TraceGenerator trace;
  std::unique_ptr<engine::EpochScheduler> protocol;
};

using telemetry::AuditKind;
using telemetry::AuditTrail;

TEST(TelemetryIntegrationTest, AuditTrailMatchesInjectedTamperingExactly) {
  SiesFixture fx;
  AuditTrail& audit = AuditTrail::Global();
  audit.Reset();
  audit.Enable();

  // Sweep bit-flip targets across the tree (same scenario as
  // attack_test's BitFlipOnAnyEdgeDetected) and keep a ground-truth
  // count from the adversary itself.
  uint64_t injected = 0;
  size_t failed_epochs = 0;
  for (net::NodeId target = 0; target < fx.network.topology().num_nodes();
       target += 3) {
    net::BitFlipAdversary adv(target, /*bit_index=*/100);
    fx.network.SetAdversary(&adv);
    auto report = fx.network.RunEpoch(*fx.protocol, 50 + target);
    injected += adv.tampered_count();
    if (report.ok() && !report.value().outcome.verified) ++failed_epochs;
  }
  fx.network.SetAdversary(nullptr);

  EXPECT_GT(injected, 0u);
  EXPECT_EQ(audit.CountOf(AuditKind::kTamper), injected)
      << "audit trail and adversary disagree on the tamper count";
  // Non-verified epochs are also attributed (one event per epoch). A
  // tampered epoch can instead fail as a malformed PSR (non-residue),
  // which surfaces as an error rather than a verification verdict.
  EXPECT_EQ(audit.CountOf(AuditKind::kVerificationFailure), failed_epochs);

  // Every tamper event carries the epoch and an attributable node.
  for (const auto& e : audit.Query(AuditKind::kTamper)) {
    EXPECT_GE(e.epoch, 50u);
    EXPECT_NE(e.node, telemetry::kAuditNoNode);
    EXPECT_FALSE(e.cause.empty());
  }
  audit.Disable();
  audit.Reset();
}

TEST(TelemetryIntegrationTest, AdversaryDropsAreAttributedToTheVictim) {
  SiesFixture fx;
  AuditTrail& audit = AuditTrail::Global();
  audit.Reset();
  audit.Enable();

  net::NodeId victim = fx.network.topology().sources()[5];
  net::DropAdversary adv(victim);
  fx.network.SetAdversary(&adv);
  auto report = fx.network.RunEpoch(*fx.protocol, 3).value();
  fx.network.SetAdversary(nullptr);

  // The contributor bitmap turns the drop into a verified partial;
  // the audit trail still attributes the suppression to the victim and
  // records the epoch's reduced coverage as reported loss.
  EXPECT_TRUE(report.outcome.verified);
  EXPECT_LT(report.coverage, 1.0);
  ASSERT_EQ(adv.dropped_count(), 1u);
  auto drops = audit.Query(AuditKind::kAdversaryDrop);
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].node, victim);
  EXPECT_EQ(drops[0].epoch, 3u);
  EXPECT_EQ(audit.CountOf(AuditKind::kReportedLoss), 1u);
  EXPECT_EQ(audit.CountOf(AuditKind::kVerificationFailure), 0u)
      << "a drop must not masquerade as tampering";
  audit.Disable();
  audit.Reset();
}

TEST(TelemetryIntegrationTest, RadioLossEventsMatchTheLossCounter) {
  SiesFixture fx;
  AuditTrail& audit = AuditTrail::Global();
  audit.Reset();
  audit.Enable();

  ASSERT_TRUE(fx.network.SetLossRate(0.2, 33).ok());
  for (uint64_t epoch = 1; epoch <= 10; ++epoch) {
    (void)fx.network.RunEpoch(*fx.protocol, epoch);  // loss epochs may error
  }
  EXPECT_GT(fx.network.lost_messages(), 0u);
  EXPECT_EQ(audit.CountOf(AuditKind::kRadioLoss), fx.network.lost_messages());
  audit.Disable();
  audit.Reset();
}

TEST(TelemetryIntegrationTest, DisabledAuditRecordsNothingUnderAttack) {
  SiesFixture fx;
  AuditTrail& audit = AuditTrail::Global();
  audit.Reset();
  audit.Disable();

  net::BitFlipAdversary adv(fx.network.topology().sources()[0],
                            /*bit_index=*/100);
  fx.network.SetAdversary(&adv);
  (void)fx.network.RunEpoch(*fx.protocol, 7);
  fx.network.SetAdversary(nullptr);

  EXPECT_GT(adv.tampered_count(), 0u);
  EXPECT_EQ(audit.size(), 0u);
}

TEST(TelemetryIntegrationTest, PhaseHistogramsCountEveryPhase) {
  SiesFixture fx;
  auto& registry = telemetry::MetricsRegistry::Global();
  // The registry is process-global and other tests feed it too, so
  // compare deltas on the stable handles rather than absolute counts.
  // The network labels phases with the protocol's name: the engine's.
  const std::string scheme = "SIES_ENGINE";
  telemetry::Histogram* source_h = registry.GetHistogram(
      "sies_phase_seconds", {{"scheme", scheme}, {"phase", "source_init"}});
  telemetry::Histogram* merge_h = registry.GetHistogram(
      "sies_phase_seconds", {{"scheme", scheme}, {"phase", "merge"}});
  telemetry::Histogram* eval_h = registry.GetHistogram(
      "sies_phase_seconds", {{"scheme", scheme}, {"phase", "evaluate"}});
  uint64_t source0 = source_h->TotalCount();
  uint64_t merge0 = merge_h->TotalCount();
  uint64_t eval0 = eval_h->TotalCount();

  auto report = fx.network.RunEpoch(*fx.protocol, 1).value();
  EXPECT_TRUE(report.outcome.verified);

  // 16 sources, a 4-ary complete tree (5 aggregators), one evaluation.
  EXPECT_EQ(source_h->TotalCount() - source0, 16u);
  EXPECT_EQ(merge_h->TotalCount() - merge0, 5u);
  EXPECT_EQ(eval_h->TotalCount() - eval0, 1u);
}

TEST(TelemetryIntegrationTest, PsrAndMergeCountersCountEveryChannel) {
  SiesFixture fx;
  // VARIANCE puts K = 3 channels (sum, sum of squares, count) on the
  // wire: every live source creates K PSRs and every merge sums K.
  core::Query variance;
  variance.aggregate = core::Aggregate::kVariance;
  auto scheduler =
      MakeSingleQueryScheduler(
          fx.params, fx.keys, fx.network.topology(),
          [&fx](uint32_t index, uint64_t epoch) {
            return fx.trace.ReadingAt(index, epoch);
          },
          variance)
          .value();
  const uint64_t k = scheduler->engine().registry().plan().Count();
  ASSERT_EQ(k, 3u);
  fx.network.FailSource(fx.network.topology().sources()[2]);

  auto& registry = telemetry::MetricsRegistry::Global();
  telemetry::Counter* psrs =
      registry.GetCounter("sies_source_psr_total", {{"scheme", "SIES"}});
  telemetry::Counter* merges = registry.GetCounter(
      "sies_aggregator_merge_total", {{"scheme", "SIES"}});
  const uint64_t psrs0 = psrs->Value();
  const uint64_t merges0 = merges->Value();

  auto report = fx.network.RunEpoch(*scheduler, 1).value();
  EXPECT_TRUE(report.outcome.verified);

  // 15 live sources; the 4-ary tree's 5 aggregators all still have a
  // live child, so all 5 merge.
  EXPECT_EQ(psrs->Value() - psrs0, 15u * k);
  EXPECT_EQ(merges->Value() - merges0, 5u * k);
}

TEST(TelemetryIntegrationTest, TracerCapturesPhaseSpans) {
  SiesFixture fx;
  telemetry::Tracer& tracer = telemetry::Tracer::Global();
  tracer.Reset();
  tracer.Enable();

  auto report = fx.network.RunEpoch(*fx.protocol, 1).value();
  EXPECT_TRUE(report.outcome.verified);
  tracer.Disable();

  std::set<std::string> names;
  for (const auto& e : tracer.Events()) names.insert(e.name);
  EXPECT_TRUE(names.count("source_init"));
  EXPECT_TRUE(names.count("merge"));
  EXPECT_TRUE(names.count("evaluate"));
  tracer.Reset();
}

TEST(TelemetryIntegrationTest, EverySinkSeesTheSameIntervals) {
  SiesFixture fx;
  // Two lanes: source_init and verify run on pool threads.
  common::ThreadPool pool(2);
  fx.network.SetThreadPool(&pool);
  fx.protocol->SetThreadPool(&pool);
  telemetry::Tracer& tracer = telemetry::Tracer::Global();
  telemetry::EpochTimeline& timeline = telemetry::EpochTimeline::Global();
  tracer.Reset();
  timeline.Reset();
  tracer.Enable();
  timeline.Enable();

  auto& registry = telemetry::MetricsRegistry::Global();
  std::vector<telemetry::Histogram*> histograms;
  std::vector<uint64_t> counts0;
  std::vector<double> sums0;
  for (size_t p = 0; p < telemetry::kPhaseCount; ++p) {
    histograms.push_back(registry.GetHistogram(
        "sies_phase_seconds",
        {{"scheme", "SIES_ENGINE"},
         {"phase", telemetry::PhaseName(static_cast<telemetry::Phase>(p))}}));
    counts0.push_back(histograms.back()->TotalCount());
    sums0.push_back(histograms.back()->Sum());
  }

  telemetry::EpochScope scope(1);
  auto report = fx.network.RunEpoch(*fx.protocol, 1).value();
  telemetry::EpochVerdict verdict;
  verdict.answered = report.answered;
  verdict.verified = report.outcome.verified;
  scope.End(verdict);
  tracer.Disable();
  timeline.Disable();
  fx.network.SetThreadPool(nullptr);
  fx.protocol->SetThreadPool(nullptr);
  ASSERT_TRUE(report.outcome.verified);

  const std::vector<telemetry::SpanEvent> spans = tracer.Events();
  const std::vector<telemetry::EpochRecord> records = timeline.Last(1);
  ASSERT_EQ(records.size(), 1u);
  const telemetry::EpochRecord& record = records[0];
  for (size_t p = 0; p < telemetry::kPhaseCount; ++p) {
    const std::string name =
        telemetry::PhaseName(static_cast<telemetry::Phase>(p));
    uint64_t span_count = 0;
    double span_us = 0.0;
    for (const telemetry::SpanEvent& e : spans) {
      if (name == e.name) {
        ++span_count;
        span_us += static_cast<double>(e.dur_us);
      }
    }
    const telemetry::PhaseStat& stat = record.phases[p];
    EXPECT_EQ(span_count, histograms[p]->TotalCount() - counts0[p]) << name;
    EXPECT_EQ(span_count, stat.calls) << name;
    // The tracer keeps whole microseconds of each reading.
    EXPECT_LE(stat.total_seconds * 1e6 - span_us,
              static_cast<double>(stat.calls)) << name;
    EXPECT_GE(stat.total_seconds * 1e6 - span_us, 0.0) << name;
    EXPECT_NEAR(histograms[p]->Sum() - sums0[p], stat.total_seconds, 1e-9)
        << name;
  }
  // 16 sources, 5 aggregators, 21 edges, one K = 1 evaluation.
  auto calls = [&record](telemetry::Phase phase) {
    return record.phases[static_cast<size_t>(phase)].calls;
  };
  EXPECT_EQ(calls(telemetry::Phase::kSourceInit), 16u);
  EXPECT_EQ(calls(telemetry::Phase::kMerge), 5u);
  EXPECT_EQ(calls(telemetry::Phase::kTransport), 21u);
  EXPECT_EQ(calls(telemetry::Phase::kEvaluate), 1u);
  EXPECT_EQ(calls(telemetry::Phase::kWireParse), 1u);
  EXPECT_EQ(calls(telemetry::Phase::kKeyDerive), 1u);
  EXPECT_EQ(calls(telemetry::Phase::kVerify), 1u);
  EXPECT_EQ(calls(telemetry::Phase::kAssemble), 1u);
  // The per-party costs are the same intervals.
  EXPECT_EQ(report.source_cpu.samples(), calls(telemetry::Phase::kSourceInit));
  EXPECT_EQ(report.aggregator_cpu.samples(), calls(telemetry::Phase::kMerge));
  EXPECT_EQ(report.querier_cpu.samples(), calls(telemetry::Phase::kEvaluate));
  auto total = [&record](telemetry::Phase phase) {
    return record.phases[static_cast<size_t>(phase)].total_seconds;
  };
  EXPECT_NEAR(report.source_cpu.total_seconds(),
              total(telemetry::Phase::kSourceInit), 1e-12);
  EXPECT_DOUBLE_EQ(report.aggregator_cpu.total_seconds(),
                   total(telemetry::Phase::kMerge));
  EXPECT_DOUBLE_EQ(report.querier_cpu.total_seconds(),
                   total(telemetry::Phase::kEvaluate));
  // The evaluate breakdown lies inside evaluate and is not attributed
  // again.
  EXPECT_LE(total(telemetry::Phase::kWireParse) +
                total(telemetry::Phase::kKeyDerive) +
                total(telemetry::Phase::kVerify) +
                total(telemetry::Phase::kAssemble),
            total(telemetry::Phase::kEvaluate));
  EXPECT_NEAR(record.attributed_seconds,
              total(telemetry::Phase::kSourceInit) +
                  total(telemetry::Phase::kMerge) +
                  total(telemetry::Phase::kTransport) +
                  total(telemetry::Phase::kEvaluate),
              1e-12);
  tracer.Reset();
  timeline.Reset();
}

}  // namespace
}  // namespace sies::runner
