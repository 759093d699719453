// Capstone integration: one long-lived deployment exercising every layer
// together — provisioning blobs, μTesla query registration, epochs over
// a lossy radio, a node failure with topology repair, an in-flight
// attack, a query switch without re-keying, and the querier's log at the
// end. If the layers compose, this test is quiet; any seam failure
// surfaces here even when the per-module tests pass.
#include <gtest/gtest.h>

#include "crypto/sha256.h"
#include "engine/engine.h"
#include "engine/epoch_scheduler.h"
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

// The same end-to-end flow holds at every supported prime width, 224 to
// 512 bits, for both share PRFs (HM1, and HM256 under its wider primes).
// Each case also pins its wire bytes: the SHA-256 over every final
// envelope of a short K = 3 mixed-aggregate engine run (HM256 cases
// under 0.2 loss, so partial envelopes are pinned too).
struct WidthCase {
  size_t bits;
  core::SharePrf prf;
  const char* envelope_digest;
};

class PrimeWidthEndToEnd : public ::testing::TestWithParam<WidthCase> {};

TEST_P(PrimeWidthEndToEnd, FullNetworkExactAtWidth) {
  const size_t bits = GetParam().bits;
  constexpr uint32_t kN = 12;
  auto params = core::MakeParams(kN, bits, 4, bits, GetParam().prf).value();
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

// Forwards to the engine's scheduler and hashes every final envelope the
// querier receives, in epoch order.
class EnvelopeDigest : public net::AggregationProtocol {
 public:
  explicit EnvelopeDigest(net::AggregationProtocol* inner) : inner_(inner) {}
  std::string Name() const override { return inner_->Name(); }
  StatusOr<Bytes> SourceInitialize(net::NodeId id, uint64_t epoch) override {
    return inner_->SourceInitialize(id, epoch);
  }
  StatusOr<Bytes> AggregatorMerge(
      net::NodeId id, uint64_t epoch,
      const std::vector<Bytes>& children) override {
    return inner_->AggregatorMerge(id, epoch, children);
  }
  StatusOr<net::EvalOutcome> QuerierEvaluate(
      uint64_t epoch, const Bytes& final_payload,
      const std::vector<net::NodeId>& participating) override {
    sha_.Update(final_payload);
    return inner_->QuerierEvaluate(epoch, final_payload, participating);
  }
  std::string HexDigest() {
    uint8_t digest[crypto::Sha256::kDigestSize];
    sha_.Final(digest);
    return ToHex(digest, sizeof(digest));
  }

 private:
  net::AggregationProtocol* inner_;
  crypto::Sha256 sha_;
};

TEST_P(PrimeWidthEndToEnd, EnvelopeBytesArePinned) {
  const WidthCase& width = GetParam();
  constexpr uint32_t kN = 12;
  auto params =
      core::MakeParams(kN, width.bits, 4, width.bits, width.prf).value();
  auto keys = core::GenerateKeys(params, EncodeUint64(width.bits));
  net::Network network(net::Topology::BuildCompleteTree(kN, 3).value());
  const bool lossy = width.prf == core::SharePrf::kHmacSha256;
  if (lossy) {
    ASSERT_TRUE(network.SetLossRate(0.2, width.bits).ok());
  }
  workload::TraceConfig tc;
  tc.num_sources = kN;
  tc.seed = width.bits;
  workload::TraceGenerator trace(tc);
  engine::EpochScheduler scheduler(
      std::make_shared<engine::MultiQueryEngine>(params, keys),
      network.topology(), [&trace](uint32_t i, uint64_t e) {
        return trace.ReadingAt(i, e);
      });
  core::Query sum, avg, variance;
  avg.aggregate = core::Aggregate::kAvg;
  avg.attribute = core::Field::kHumidity;
  avg.scale_pow10 = 1;
  avg.query_id = 1;
  variance.aggregate = core::Aggregate::kVariance;
  variance.query_id = 2;
  for (const core::Query& q : {sum, avg, variance}) {
    ASSERT_TRUE(scheduler.Admit(q, 1).ok());
  }
  EnvelopeDigest digest(&scheduler);
  int partial = 0;
  for (uint64_t epoch = 1; epoch <= 6; ++epoch) {
    auto report = network.RunEpoch(digest, epoch);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    if (!report.value().answered) continue;
    EXPECT_TRUE(report.value().outcome.verified) << "epoch " << epoch;
    if (report.value().coverage < 1.0) ++partial;
  }
  if (lossy) {
    EXPECT_GT(partial, 0) << "no partial envelope was pinned";
  }
  EXPECT_EQ(digest.HexDigest(), width.envelope_digest)
      << width.bits << "-bit wire bytes changed";
}

INSTANTIATE_TEST_SUITE_P(
    Widths, PrimeWidthEndToEnd,
    ::testing::Values(
        WidthCase{224, core::SharePrf::kHmacSha1,
                  "d8a067fd65180544a0c790d29a16f5a1404b7af6434904dcc77e16ff72f49f13"},
        WidthCase{256, core::SharePrf::kHmacSha1,
                  "29c3e6aef4ac3332fbff92b05b9d55c568f52a29ac8a513d6b6502edecbd0ba5"},
        WidthCase{320, core::SharePrf::kHmacSha1,
                  "c173a6ad88ac3a4a08671b463dabc0de0f2e1ec551592cf96e5a23494c2a6dd9"},
        WidthCase{512, core::SharePrf::kHmacSha1,
                  "eb813601217fe99ed51b0a327ce2860135bb322564570ce123ea6bd78c93f8e4"},
        WidthCase{352, core::SharePrf::kHmacSha256,
                  "1ddfc823e5299305143932b0b5a90187592a760da8301b4936aa1f3fdacc88fa"},
        WidthCase{384, core::SharePrf::kHmacSha256,
                  "9438cacee4f1e9dd78d45166c90b9121027df37b0b328d04526a9c0a0b960976"}),
    [](const ::testing::TestParamInfo<WidthCase>& info) {
      return std::string(info.param.prf == core::SharePrf::kHmacSha1
                             ? "Hm1_"
                             : "Hm256_") +
             std::to_string(info.param.bits);
    });

}  // namespace
}  // namespace sies::runner
