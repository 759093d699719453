// Capstone integration: one long-lived deployment exercising every layer
// together — provisioning blobs, μTesla query registration, epochs over
// a lossy radio, a node failure with topology repair, an in-flight
// attack, a query switch without re-keying, and the querier's log at the
// end. If the layers compose, this test is quiet; any seam failure
// surfaces here even when the per-module tests pass.
#include <gtest/gtest.h>

#include "net/adversary.h"
#include "runner/deployment.h"
#include "runner/runner.h"
#include "sies/message_format.h"
#include "sies/provisioning.h"

namespace sies::runner {
namespace {

TEST(FullStackTest, LifecycleAcrossAllLayers) {
  constexpr uint32_t kN = 32;
  constexpr uint64_t kSeed = 2026;

  // --- Provisioning: keys survive a serialization round trip. ---
  auto params = core::MakeParams(kN, kSeed).value();
  core::Deployment provisioned;
  provisioned.params = params;
  provisioned.keys = core::GenerateKeys(params, EncodeUint64(kSeed));
  Bytes blob = core::SerializeDeployment(provisioned).value();
  ASSERT_TRUE(core::ParseDeployment(blob).ok());

  // --- Deployment over an irregular topology. ---
  Xoshiro256 topo_rng(kSeed);
  auto topology = net::Topology::BuildRandomTree(kN, 4, topo_rng).value();
  workload::TraceConfig tc;
  tc.seed = kSeed;
  tc.temporal_model = workload::TemporalModel::kRandomWalk;
  auto deployment =
      ContinuousDeployment::Create(topology, kSeed, tc).value();

  core::Query sum_query;
  sum_query.aggregate = core::Aggregate::kSum;
  sum_query.query_id = 1;
  ASSERT_TRUE(deployment.RegisterQuery(sum_query).ok());

  // --- Epochs 1-3: clean. ---
  for (uint64_t epoch = 1; epoch <= 3; ++epoch) {
    auto out = deployment.RunEpoch(epoch).value();
    EXPECT_TRUE(out.verified) << "epoch " << epoch;
  }

  // --- Epoch 4: in-flight tampering is rejected. ---
  net::BitFlipAdversary tamper(deployment.network().topology().root(), 9);
  deployment.network().SetAdversary(&tamper);
  auto attacked = deployment.RunEpoch(4);
  deployment.network().SetAdversary(nullptr);
  if (attacked.ok() && tamper.tampered_count() > 0) {
    EXPECT_FALSE(attacked.value().verified);
  }

  // --- Epoch 5: a source fails, is reported, and the epoch verifies
  // --- against the reduced participant set. ---
  net::NodeId victim = deployment.network().topology().sources()[3];
  deployment.network().FailSource(victim);
  EXPECT_TRUE(deployment.RunEpoch(5).value().verified);
  deployment.network().HealAllSources();

  // --- Epoch 6+: lossy radio; every answered epoch verifies over the
  // --- contributor set it declares, and loss shows up as coverage. ---
  ASSERT_TRUE(deployment.network().SetLossRate(0.2, kSeed).ok());
  int clean = 0;
  for (uint64_t epoch = 6; epoch <= 12; ++epoch) {
    auto out = deployment.RunEpoch(epoch);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    if (!out.value().answered) continue;  // the final payload was lost
    EXPECT_TRUE(out.value().verified) << "epoch " << epoch;
    EXPECT_EQ(out.value().contributors == kN, out.value().coverage == 1.0);
    if (out.value().coverage == 1.0) ++clean;
  }
  ASSERT_TRUE(deployment.network().SetLossRate(0.0, kSeed).ok());

  // --- Query switch WITHOUT re-keying, then more clean epochs. ---
  core::Query avg_query;
  avg_query.aggregate = core::Aggregate::kAvg;
  avg_query.attribute = core::Field::kHumidity;
  avg_query.scale_pow10 = 1;
  avg_query.query_id = 2;
  ASSERT_TRUE(deployment.RegisterQuery(avg_query).ok());
  auto avg_out = deployment.RunEpoch(13).value();
  EXPECT_TRUE(avg_out.verified);
  EXPECT_GT(avg_out.result.value, 30.0);
  EXPECT_LT(avg_out.result.value, 70.0);

  // --- The log saw everything: some rejections, maybe gaps, and a
  // --- recovering tail. ---
  const core::ResultLog& log = deployment.log();
  EXPECT_GE(log.recorded_epochs(), 6u);
  EXPECT_FALSE(log.UnderAttack(0.9)) << "the clean tail should dominate";
  (void)clean;
}

// The same end-to-end flow holds at every supported prime width: the
// K = 1 engine over a full network, 224 to 512 bits (256 is the Fp256
// fast path, every other width the generic BigUint tier).
class PrimeWidthEndToEnd : public ::testing::TestWithParam<size_t> {};

TEST_P(PrimeWidthEndToEnd, FullNetworkExactAtWidth) {
  size_t bits = GetParam();
  constexpr uint32_t kN = 12;
  auto params = core::MakeParams(kN, bits, 4, bits).value();
  auto keys = core::GenerateKeys(params, EncodeUint64(bits));
  auto topology = net::Topology::BuildCompleteTree(kN, 3).value();
  net::Network network(topology);
  workload::TraceConfig tc;
  tc.num_sources = kN;
  tc.seed = bits;
  workload::TraceGenerator trace(tc);
  core::Query query;  // SUM(temperature) at the trace's 10^2 scaling
  auto protocol = MakeSingleQueryScheduler(
                      params, keys, topology,
                      [&trace](uint32_t i, uint64_t e) {
                        return trace.ReadingAt(i, e);
                      },
                      query)
                      .value();
  for (uint64_t epoch = 1; epoch <= 2; ++epoch) {
    auto report = network.RunEpoch(*protocol, epoch).value();
    EXPECT_TRUE(report.outcome.verified) << bits << " bits";
    EXPECT_EQ(report.outcome.value,
              core::CombineChannels(query, Snapshot(trace, epoch).exact_sum,
                                    0, 0)
                  .value()
                  .value);
    EXPECT_DOUBLE_EQ(
        report.source_to_aggregator.MeanBytes(),
        static_cast<double>((bits + 7) / 8 +
                            core::WireBitmapBytes(params)));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, PrimeWidthEndToEnd,
                         ::testing::Values(224, 256, 320, 512));

}  // namespace
}  // namespace sies::runner
